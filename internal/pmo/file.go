package pmo

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"domainvirt/internal/memlayout"
)

// Pool file format (one file per pool, sparse):
//
//	magic "PMOFILE1" (8 bytes)
//	u32 pool ID, u64 size, u16 mode
//	u16 owner length + owner bytes
//	u16 attach-key length + key bytes
//	u16 name length + name bytes
//	u64 populated frame count
//	frames: u64 page index + 4096 bytes, ascending
const poolFileExt = ".pmo"

var poolFileMagic = [8]byte{'P', 'M', 'O', 'F', 'I', 'L', 'E', '1'}

func savePoolFile(path string, p *Pool) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	if err := writePool(bw, p); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	// Atomic replace: a crash mid-save leaves the previous image intact.
	return os.Rename(tmp, path)
}

func writePool(w io.Writer, p *Pool) error {
	if _, err := w.Write(poolFileMagic[:]); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, p.id); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, p.size); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint16(p.mode)); err != nil {
		return err
	}
	for _, s := range []string{p.owner, p.attachKey, p.name} {
		if err := writeString(w, s); err != nil {
			return err
		}
	}
	if err := binary.Write(w, binary.LittleEndian, uint64(p.pages.count)); err != nil {
		return err
	}
	var rec [8 + memlayout.PageSize]byte
	return p.pages.each(func(idx uint64, f *frame) error {
		binary.LittleEndian.PutUint64(rec[:8], idx)
		f.read(0, rec[8:])
		_, err := w.Write(rec[:])
		return err
	})
}

func loadPoolFile(path string) (*Pool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return readPool(bufio.NewReaderSize(f, 1<<16))
}

func readPool(r io.Reader) (*Pool, error) {
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, err
	}
	if magic != poolFileMagic {
		return nil, errors.New("pmo: not a pool file")
	}
	var id uint32
	var size uint64
	var mode uint16
	if err := binary.Read(r, binary.LittleEndian, &id); err != nil {
		return nil, err
	}
	if err := binary.Read(r, binary.LittleEndian, &size); err != nil {
		return nil, err
	}
	if err := binary.Read(r, binary.LittleEndian, &mode); err != nil {
		return nil, err
	}
	owner, err := readString(r)
	if err != nil {
		return nil, err
	}
	attachKey, err := readString(r)
	if err != nil {
		return nil, err
	}
	name, err := readString(r)
	if err != nil {
		return nil, err
	}
	p := &Pool{
		name:      name,
		id:        id,
		size:      size,
		mode:      Mode(mode),
		owner:     owner,
		attachKey: attachKey,
		pages:     newPageDir(size),
	}
	var nframes uint64
	if err := binary.Read(r, binary.LittleEndian, &nframes); err != nil {
		return nil, err
	}
	maxFrames := (size + memlayout.PageSize - 1) / memlayout.PageSize
	if nframes > maxFrames {
		return nil, fmt.Errorf("pmo: corrupt pool file: %d frames exceeds pool capacity %d", nframes, maxFrames)
	}
	var rec [8 + memlayout.PageSize]byte
	for i := uint64(0); i < nframes; i++ {
		if _, err := io.ReadFull(r, rec[:]); err != nil {
			return nil, err
		}
		idx := binary.LittleEndian.Uint64(rec[:8])
		if idx >= maxFrames {
			return nil, fmt.Errorf("pmo: corrupt pool file: frame index %d out of range", idx)
		}
		p.pages.get(idx).write(0, rec[8:])
	}
	if p.readU64Raw(hdrMagic) != poolMagic {
		return nil, fmt.Errorf("pmo: pool %q header corrupt", name)
	}
	return p, nil
}

func writeString(w io.Writer, s string) error {
	if len(s) > 0xFFFF {
		return errors.New("pmo: string too long")
	}
	if err := binary.Write(w, binary.LittleEndian, uint16(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

func readString(r io.Reader) (string, error) {
	var n uint16
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", err
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}
