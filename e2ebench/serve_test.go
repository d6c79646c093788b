package main

import (
	"testing"

	"domainvirt/internal/reqtrace"
)

func TestShadowVerifierCatchesCorruptedRead(t *testing.T) {
	p, err := setUp(1, false, reqtrace.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := p.close(); err != nil {
			t.Error(err)
		}
	}()
	c := p.clients[0]
	got, err := c.c.Read(slotOffset(3), valueSize)
	if err != nil {
		t.Fatal(err)
	}
	if !c.verify(3, got) {
		t.Fatal("an intact read failed verification")
	}
	// Change the slot behind the shadow's back, as a server that lost or
	// misplaced a write would.
	bad := append([]byte(nil), c.slot(3)...)
	bad[17] ^= 0x40
	if err := c.c.Write(slotOffset(3), bad); err != nil {
		t.Fatal(err)
	}
	if got, err = c.c.Read(slotOffset(3), valueSize); err != nil {
		t.Fatal(err)
	}
	if c.verify(3, got) {
		t.Fatal("a corrupted read passed verification")
	}

	// The same corruption, met during a measured run, is a failed op.
	for slot := 0; slot < serveSlots; slot++ {
		if err := c.c.Write(slotOffset(slot), bad); err != nil {
			t.Fatal(err)
		}
	}
	c.run(200)
	r := newReport()
	p.outcome(r)
	if c.mismatches == 0 || r.failed < int64(c.mismatches) || r.attempted != 200 {
		t.Fatalf("run over corrupted slots: %d mismatches, %d failed of %d", c.mismatches, r.failed, r.attempted)
	}
}
