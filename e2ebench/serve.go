package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sync"
	"time"

	"domainvirt/internal/cluster"
	"domainvirt/internal/reqtrace"
	"domainvirt/internal/serve"
	"domainvirt/internal/sim"
)

const (
	// serveConns is the number of closed-loop connections, one per CPU
	// of the reference container, each on its own pool.
	serveConns = 2
	valueSize  = 128
	// dataBase keeps clients clear of the pool header and redo-log
	// area, as pmoload does: a raw WRITE over the header's log-area
	// pointer followed by TX_COMMIT crashes pmod (see NOTES.md).
	dataBase   = 256 << 10
	serveSlots = 8192
	poolSize   = dataBase + serveSlots*valueSize
)

// opsPerConnSecond sizes the fixed op count of the measured phase: each
// connection runs seconds*opsPerConnSecond ops, about --seconds of work
// on the reference container.
var opsPerConnSecond = map[bool]int{false: 35000, true: 18000}

// Op kinds of the serve mix: 70% READ, 27% WRITE, 3% TX_COMMIT.
const (
	kindRead = iota
	kindWrite
	kindTx
	numKinds
)

// deployment is one fresh in-process pmod (or two pmods behind a
// pmorouter) on loopback, with a fresh in-memory store.
type deployment struct {
	servers []*serve.Server
	router  *cluster.Router
	addr    string // where clients connect
	wg      sync.WaitGroup
	errs    chan error
}

func (d *deployment) listen(serveFn func(net.Listener) error) (string, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		if err := serveFn(lis); err != nil {
			d.errs <- err
		}
	}()
	return lis.Addr().String(), nil
}

func deploy(routed bool, tr reqtrace.Config) (*deployment, error) {
	d := &deployment{errs: make(chan error, 3)} // one slot per Serve loop
	n := 1
	if routed {
		n = 2
	}
	var addrs []string
	for i := 0; i < n; i++ {
		s := serve.NewServer(serve.Options{Engine: sim.SchemeDomainVirt, Trace: tr})
		addr, err := d.listen(s.Serve)
		if err != nil {
			d.stop()
			return nil, err
		}
		d.servers = append(d.servers, s)
		addrs = append(addrs, addr)
	}
	d.addr = addrs[0]
	if routed {
		// No health probing: a probe is extra traffic on the backends
		// that would make their request counts depend on timing.
		r, err := cluster.NewRouter(cluster.Options{Backends: addrs, HealthEvery: -1})
		if err != nil {
			d.stop()
			return nil, err
		}
		d.router = r
		if d.addr, err = d.listen(r.Serve); err != nil {
			d.stop()
			return nil, err
		}
	}
	return d, nil
}

// backends returns the pmod addresses in routing order.
func (d *deployment) backends() []string {
	if d.router != nil {
		return d.router.Backends()
	}
	return []string{d.addr}
}

// stop shuts the router and the servers down and waits for their Serve
// loops to return.
func (d *deployment) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var errs []error
	if d.router != nil {
		errs = append(errs, d.router.Shutdown(ctx))
	}
	for _, s := range d.servers {
		errs = append(errs, s.Shutdown(ctx))
	}
	d.wg.Wait()
	close(d.errs)
	for err := range d.errs {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// client is one closed-loop connection with a shadow copy of its pool's
// data slots, against which every READ is verified.
type client struct {
	c      *serve.Client
	rng    *rand.Rand
	shadow []byte
	buf    []byte
	tx     []serve.TxWrite

	lat                         []time.Duration // per measured op
	kinds                       []uint8
	retries, errors, mismatches int
}

// poolName picks the pool name of connection i. Routed, it is the first
// candidate whose rendezvous owner is backend i, so each backend serves
// one pool.
func poolName(seed int64, i int, backends []string) string {
	for k := 0; ; k++ {
		name := fmt.Sprintf("e2e-%d-%d-%d", seed, i, k)
		if len(backends) == 1 || cluster.PickIndex(name, backends) == i%len(backends) {
			return name
		}
	}
}

// connect opens connection i's session and fills every data slot, so
// each later READ has a known expected value.
func connect(d *deployment, seed int64, i int) (*client, error) {
	sc, err := serve.Dial(d.addr)
	if err != nil {
		return nil, err
	}
	c := &client{
		c:      sc,
		rng:    rand.New(rand.NewSource(seed*1_000_003 + int64(i))),
		shadow: make([]byte, serveSlots*valueSize),
		buf:    make([]byte, valueSize),
		tx:     make([]serve.TxWrite, 1),
	}
	name := poolName(seed, i, d.backends())
	if err := sc.Hello(name); err != nil {
		sc.Close()
		return nil, err
	}
	if _, err := sc.Open(name, poolSize); err != nil {
		sc.Close()
		return nil, err
	}
	if err := sc.Attach(true); err != nil {
		sc.Close()
		return nil, err
	}
	for slot := 0; slot < serveSlots; slot++ {
		c.fill()
		if err := sc.Write(slotOffset(slot), c.buf); err != nil {
			sc.Close()
			return nil, fmt.Errorf("prefill slot %d: %w", slot, err)
		}
		copy(c.slot(slot), c.buf)
	}
	return c, nil
}

func slotOffset(slot int) uint32 { return uint32(dataBase + slot*valueSize) }

func (c *client) slot(i int) []byte { return c.shadow[i*valueSize : (i+1)*valueSize] }

func (c *client) fill() {
	for i := 0; i < valueSize; i += 8 {
		v := c.rng.Uint64()
		for j := 0; j < 8; j++ {
			c.buf[i+j] = byte(v >> (8 * j))
		}
	}
}

// verify reports whether a READ of slot returned what this connection
// last wrote there.
func (c *client) verify(slot int, got []byte) bool { return bytes.Equal(got, c.slot(slot)) }

// run executes n ops of the mix, timing each round trip.
func (c *client) run(n int) {
	c.lat = make([]time.Duration, 0, n)
	c.kinds = make([]uint8, 0, n)
	for i := 0; i < n; i++ {
		r := c.rng.Intn(100)
		slot := c.rng.Intn(serveSlots)
		off := slotOffset(slot)
		var kind uint8
		var err error
		var t0 time.Time
		switch {
		case r < 70:
			kind = kindRead
			var data []byte
			t0 = time.Now()
			data, err = c.c.Read(off, valueSize)
			c.lat = append(c.lat, time.Since(t0))
			if err == nil && !c.verify(slot, data) {
				c.mismatches++
			}
		case r < 97:
			kind = kindWrite
			c.fill()
			t0 = time.Now()
			err = c.c.Write(off, c.buf)
			c.lat = append(c.lat, time.Since(t0))
		default:
			kind = kindTx
			c.fill()
			c.tx[0] = serve.TxWrite{Off: off, Data: c.buf}
			t0 = time.Now()
			err = c.c.TxCommit(c.tx)
			c.lat = append(c.lat, time.Since(t0))
		}
		c.kinds = append(c.kinds, kind)
		switch {
		case errors.Is(err, serve.ErrServerBusy):
			c.retries++
		case err != nil:
			c.errors++
		case kind != kindRead:
			copy(c.slot(slot), c.buf)
		}
	}
}

// servePhase is one deployment's set-up and measured phase.
type servePhase struct {
	d       *deployment
	clients []*client
	wall    time.Duration
	cpu     time.Duration
}

// setUp deploys fresh servers and connects and fills every client.
func setUp(seed int64, routed bool, tr reqtrace.Config) (*servePhase, error) {
	d, err := deploy(routed, tr)
	if err != nil {
		return nil, err
	}
	p := &servePhase{d: d, clients: make([]*client, serveConns)}
	errs := make([]error, serveConns)
	var wg sync.WaitGroup
	for i := range p.clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p.clients[i], errs[i] = connect(d, seed, i)
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		p.close()
		return nil, err
	}
	return p, nil
}

// measure runs n ops on every client concurrently.
func (p *servePhase) measure(n int) {
	var wg sync.WaitGroup
	c0, t0 := processCPU(), time.Now()
	for _, c := range p.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.run(n)
		}(c)
	}
	wg.Wait()
	p.wall, p.cpu = time.Since(t0), processCPU()-c0
}

func (p *servePhase) close() error {
	for _, c := range p.clients {
		if c != nil {
			c.c.Close()
		}
	}
	return p.d.stop()
}

// failures sums the clients' failed ops by cause.
func (p *servePhase) failures() (retries, errs, bad int) {
	for _, c := range p.clients {
		retries += c.retries
		errs += c.errors
		bad += c.mismatches
	}
	return retries, errs, bad
}

// outcome charges the phase's failed ops to r and returns all latencies.
func (p *servePhase) outcome(r *report) []time.Duration {
	var all []time.Duration
	for _, c := range p.clients {
		all = append(all, c.lat...)
	}
	retries, errs, bad := p.failures()
	r.attempted += int64(len(all))
	if n := retries + errs + bad; n > 0 {
		r.fail(int64(n), "serve: %d RETRY, %d errors, %d verify failures", retries, errs, bad)
	}
	return all
}

// serveRounds is how many fresh deployments a timed run sets up and
// measures; each end-to-end metric is the median over the rounds, which
// keeps one unlucky round (a GC cycle, a descheduled thread) out of it.
const serveRounds = 5

func serveBench(cfg runConfig, routed bool) (*report, error) {
	r := newReport()
	n := cfg.seconds * opsPerConnSecond[routed]
	if !cfg.trace {
		var setups, walls, cpus, rates, p50s, p99s []float64
		samples := 0
		for i := 0; i < serveRounds; i++ {
			var p *servePhase
			d, err := cpuOf(func() (err error) { p, err = setUp(cfg.seed, routed, reqtrace.Config{}); return err })
			if err != nil {
				return nil, err
			}
			setups = append(setups, d.Seconds())
			p.measure(n / serveRounds)
			lat := p.outcome(r)
			if err := p.close(); err != nil {
				return nil, err
			}
			samples = len(lat)
			walls = append(walls, p.wall.Seconds())
			cpus = append(cpus, p.cpu.Seconds())
			rates = append(rates, float64(len(lat))/p.wall.Seconds())
			p50s = append(p50s, float64(percentile(lat, 50).Value.Nanoseconds())/1e3)
			p99s = append(p99s, float64(percentile(lat, 99).Value.Nanoseconds())/1e3)
			fmt.Fprintf(os.Stderr, "e2ebench: round %d: set-up CPU %.3fs, %d ops in %.3fs wall, %.3fs CPU, %.0f ops/s, p50 %.1fus, p99 %.1fus\n",
				i, setups[i], len(lat), walls[i], cpus[i], rates[i], p50s[i], p99s[i])
			releaseMemory()
		}
		r.e2e("setup_s", median(setups), "s")
		r.e2e("cpu_s", median(cpus), "s")
		fmt.Fprintf(os.Stderr, "e2ebench: medians over %d rounds of %d ops each: wall %.3fs, %.0f ops/s, p50 %.1fus, p99 %.1fus\n",
			serveRounds, samples, median(walls), median(rates), median(p50s), median(p99s))
		return r, nil
	}

	// Traced run: an untraced phase for reference, then a fresh
	// deployment with request tracing on, under the CPU profiler.
	ref, err := setUp(cfg.seed, routed, reqtrace.Config{})
	if err != nil {
		return nil, err
	}
	ref.measure(n)
	refLat := ref.outcome(r)
	if err := ref.close(); err != nil {
		return nil, err
	}
	var p *servePhase
	prof, err := profiled(func() (err error) {
		p, err = setUp(cfg.seed, routed, reqtrace.Config{SampleEvery: 16, RingSize: 1 << 16})
		if err == nil {
			p.measure(n)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	lat := p.outcome(r)
	r.layer("trace.overhead_pct", overheadPct(p.wall, ref.wall), "%")
	// The wall figures of the untraced reference phase: the timed runs
	// gate CPU time instead (see NOTES.md).
	p99 := percentile(refLat, 99)
	r.layer("client.p99_us", float64(p99.Value.Nanoseconds())/1e3, "us")
	r.layer("wall.unit_s", ref.wall.Seconds(), "s")
	r.layer("wall.ops_per_s", float64(len(refLat))/ref.wall.Seconds(), "1/s")
	r.layer("wall.op_p50_us", float64(percentile(refLat, 50).Value.Nanoseconds())/1e3, "us")
	fmt.Fprintf(os.Stderr, "e2ebench: untraced client p99 %v from %d samples\n", p99.Value, p99.N)
	serveLayer(r, p, lat)
	if err := p.close(); err != nil {
		return nil, err
	}
	r.profile(prof)
	return r, nil
}

// serveLayer reports client round trips per op kind, the server's own
// stage times from its request spans, and the request and routing counts.
func serveLayer(r *report, p *servePhase, lat []time.Duration) {
	var byKind [numKinds][]time.Duration
	for _, c := range p.clients {
		for i, k := range c.kinds {
			byKind[k] = append(byKind[k], c.lat[i])
		}
	}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	for k, name := range []string{"read", "write", "tx"} {
		r.layer("client."+name+"_p50_us", us(percentile(byKind[k], 50).Value), "us")
	}

	// Stage p50s over the sampled spans of data ops; persist only over
	// TX_COMMIT, the one op that has a persist stage.
	var stages [reqtrace.NumStages][]time.Duration
	var totals []time.Duration
	var requests uint64
	for _, s := range p.d.servers {
		for _, sp := range s.Tracer().Snapshot() {
			switch serve.Op(sp.Op) {
			case serve.OpRead, serve.OpWrite, serve.OpTxCommit:
			default:
				continue
			}
			totals = append(totals, time.Duration(sp.Total))
			for st := range stages {
				if reqtrace.Stage(st) != reqtrace.StagePersist || serve.Op(sp.Op) == serve.OpTxCommit {
					stages[st] = append(stages[st], time.Duration(sp.Stages[st]))
				}
			}
		}
		m := s.Metrics()
		requests += m.Requests[serve.OpRead].Load() + m.Requests[serve.OpWrite].Load() + m.Requests[serve.OpTxCommit].Load()
	}
	for st := reqtrace.Stage(0); st < reqtrace.NumStages; st++ {
		r.layer("pmod."+st.String()+"_us", us(percentile(stages[st], 50).Value), "us")
	}
	pmodTotal := percentile(totals, 50).Value
	r.layer("pmod.total_us", us(pmodTotal), "us")
	r.layer("outside_pmod_us", us(percentile(lat, 50).Value-pmodTotal), "us")

	retries, errs, bad := p.failures()
	counts := map[string]uint64{
		"serve.requests":        requests,
		"serve.retries":         uint64(retries),
		"serve.errors":          uint64(errs),
		"serve.verify_failures": uint64(bad),
	}
	if rt := p.d.router; rt != nil {
		m := rt.Metrics()
		counts["router.relayed"] = m.Relayed.Load()
		counts["router.sessions"] = m.Sessions.Load()
		var most uint64
		for _, s := range p.d.servers {
			most = max(most, uint64(s.SessionCount()))
		}
		counts["router.backend_sessions_max"] = most
	}
	for k, v := range counts {
		r.counted(k, v, "count")
	}
}
