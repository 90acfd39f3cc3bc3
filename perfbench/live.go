package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"flashcoop/internal/cluster"
	"flashcoop/internal/ssd"
)

// liveSpec describes one live workload: the writer node's configuration,
// the op stream, what set-up does before the first timed op, and the
// frozen open-loop rate of its latency leg.
type liveSpec struct {
	name       string
	bufPages   int
	ssd        ssd.Config
	fileBacked bool // file store with SyncWrites and default group commit
	victimSegs int  // victim tier segments (0 = tier off)
	minReuse   int64
	pacing     bool    // DevicePacing during the measured window only
	precond    float64 // home-device fill before serving (0 = none)
	span       int64   // pages the op stream addresses
	prefill    bool    // set-up writes every page of the span once
	warmOps    int     // closed-loop warm-up ops in set-up
	rate       float64 // frozen open-loop rate of the latency leg, ops/s
	gen        func(seed int64, n int) ([]op, error)
}

// target is what a client drives: the pair's writer node, or a stand-in
// in tests of the load generator.
type target interface {
	Write(lpn int64, data []byte) error
	Read(lpn int64, pages int) ([]byte, error)
}

// pair is one set-up cooperative pair: the writer every client drives and
// its partner, which holds the writer's backups.
type pair struct {
	writer, backup *cluster.LiveNode
	node           target // the writer, as the clients see it
	dir            string
	chk            *checker
}

func (p *pair) close() {
	if p.writer != nil {
		p.writer.Close()
	}
	if p.backup != nil {
		p.backup.Close()
	}
	if p.dir != "" {
		os.RemoveAll(p.dir)
	}
}

// setup builds a fresh pair under root and brings it to the state the
// first timed op sees: connected, device preconditioned, span pre-filled,
// warmed up, and garbage-collected. It returns the pair and the set-up
// time.
func (s *liveSpec) setup(root string, clients int, warm []op) (*pair, time.Duration, error) {
	t0 := time.Now()
	p := &pair{}
	fail := func(err error) (*pair, time.Duration, error) {
		p.close()
		return nil, 0, fmt.Errorf("%s set-up: %w", s.name, err)
	}
	backupCfg := cluster.LiveConfig{
		Name: "backup", ListenAddr: "127.0.0.1:0",
		BufferPages: s.bufPages, RemotePages: int(s.span), SSD: s.ssd,
	}
	var err error
	if p.backup, err = cluster.NewLiveNode(backupCfg); err != nil {
		return fail(err)
	}
	cfg := cluster.LiveConfig{
		Name: "writer", ListenAddr: "127.0.0.1:0", PeerAddr: p.backup.Addr(),
		BufferPages: s.bufPages, RemotePages: int(s.span), SSD: s.ssd,
		VictimSegments: s.victimSegs, AdmissionMinReuse: s.minReuse,
	}
	if s.fileBacked {
		if p.dir, err = os.MkdirTemp(root, s.name+"-"); err != nil {
			return fail(err)
		}
		cfg.DataDir, cfg.SyncWrites = p.dir, true
	}
	if p.writer, err = cluster.NewLiveNode(cfg); err != nil {
		return fail(err)
	}
	// The device is idle until the pair connects, so preconditioning it
	// through Device() here races with nothing.
	if s.precond > 0 {
		if err := p.writer.Device().Precondition(s.precond); err != nil {
			return fail(err)
		}
	}
	if err := p.writer.ConnectPeer(); err != nil {
		return fail(err)
	}
	p.node = p.writer
	ps := p.writer.Device().PageSize()
	p.chk = newChecker(s.span, ps)
	if s.prefill {
		ppb := int64(p.writer.Device().PagesPerBlock())
		buf := make([]byte, int(ppb)*ps)
		for lpn := int64(0); lpn < s.span; lpn += ppb {
			n := int(min(ppb, s.span-lpn))
			if err := p.chk.write(lpn, n, setupClient, buf, func(b []byte) error { return p.writer.Write(lpn, b) }); err != nil {
				return fail(fmt.Errorf("pre-fill %d: %w", lpn, err))
			}
		}
		if s.fileBacked {
			if err := p.writer.FlushAll(); err != nil {
				return fail(fmt.Errorf("pre-fill flush: %w", err))
			}
		}
	}
	if len(warm) > 0 {
		lr := closedLoop(p, warm, clients, len(warm), 0, nil)
		if lr.failed > 0 {
			return fail(fmt.Errorf("warm-up: %d of %d ops failed: %v", lr.failed, lr.done, lr.firstErr))
		}
	}
	runtime.GC()
	return p, time.Since(t0), nil
}

// legResult is what one load leg observed.
type legResult struct {
	done, failed          int64
	firstErr              error
	elapsed               time.Duration
	readPages, writePages int64
	lat                   []sample // open loop only
	marks                 []checkpoint
	backlogEnd            int64
}

// sample is one open-loop op that succeeded: when it was due (since the
// leg began), its latency from then, and how late it was sent.
type sample struct {
	due   time.Duration
	ms    float64
	lagMs float64
	read  bool
}

// checkpoint is the capacity leg's progress at one instant.
type checkpoint struct {
	at    time.Duration
	done  int64
	cpu   time.Duration
	alloc uint64
	steal stealSample
}

// monitor records a checkpoint of completed every interval from t0 until
// the returned stop is called; stop returns the checkpoints.
func monitor(t0 time.Time, every time.Duration, completed *atomic.Int64) (stop func() []checkpoint) {
	var marks []checkpoint
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		mark := func() {
			marks = append(marks, checkpoint{time.Since(t0), completed.Load(), cpuTime(), readRuntime().allocBytes, readSteal()})
		}
		for {
			mark()
			select {
			case <-done:
				mark() // closes the last, partial interval
				return
			case <-t.C:
			}
		}
	}()
	return func() []checkpoint {
		close(done)
		wg.Wait()
		return marks
	}
}

func (r *legResult) add(o *legResult) {
	r.done += o.done
	r.failed += o.failed
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
	r.readPages += o.readPages
	r.writePages += o.writePages
	r.lat = append(r.lat, o.lat...)
}

// client is one load goroutine's state.
type client struct {
	id     int
	p      *pair
	buf    []byte
	floors []int64
	sb     *spanBuf
	res    legResult
}

func newClient(id int, p *pair, sb *spanBuf) *client {
	return &client{id: id, p: p, buf: make([]byte, 8*p.chk.pageSize), sb: sb}
}

// do runs one op through the writer and checks what it returns. An error
// is counted as a failed op; a wrong payload is a correctness problem.
func (c *client) do(o op, opID int64, parent int) bool {
	var err error
	if o.read {
		c.floors = c.floors[:0]
		for i := 0; i < o.pages; i++ {
			c.floors = append(c.floors, c.p.chk.floor(o.lpn+int64(i)))
		}
		sp := c.sb.begin("cluster.Read", parent, opID)
		var data []byte
		data, err = c.p.node.Read(o.lpn, o.pages)
		c.sb.end(sp)
		if err == nil {
			c.p.chk.checkRead(o.lpn, data, c.floors)
			c.res.readPages += int64(o.pages)
		}
	} else {
		err = c.p.chk.write(o.lpn, o.pages, c.id, c.buf, func(b []byte) error {
			sp := c.sb.begin("cluster.Write", parent, opID)
			werr := c.p.node.Write(o.lpn, b)
			c.sb.end(sp)
			return werr
		})
		if err == nil {
			c.res.writePages += int64(o.pages)
		}
	}
	c.res.done++
	if err != nil {
		c.res.failed++
		if c.res.firstErr == nil {
			c.res.firstErr = err
		}
		return false
	}
	return true
}

// runClients starts n clients, waits for all of them, and merges their
// results and spans.
func runClients(p *pair, n int, sb *spanBuf, body func(c *client)) legResult {
	cs := make([]*client, n)
	var wg sync.WaitGroup
	for i := range cs {
		var csb *spanBuf
		if sb != nil {
			csb = newSpanBuf(sb.epoch)
		}
		cs[i] = newClient(i, p, csb)
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			body(c)
		}(cs[i])
	}
	wg.Wait()
	var out legResult
	for _, c := range cs {
		out.add(&c.res)
		sb.merge(c.sb)
	}
	return out
}

// markEvery is the capacity leg's checkpoint interval. Rates, CPU and
// allocation per op are taken per interval and reported as medians, so a
// burst of host noise moves one interval rather than the whole figure.
const markEvery = 250 * time.Millisecond

// closedLoop runs the capacity leg: each client sends its next op only
// after the previous reply, until limit ops were taken (limit > 0) or dur
// has elapsed (dur > 0). Ops are taken in stream order and the stream
// wraps around. A timed leg records a checkpoint every markEvery.
func closedLoop(p *pair, ops []op, clients, limit int, dur time.Duration, sb *spanBuf) legResult {
	var next, completed atomic.Int64
	t0 := time.Now()
	deadline := t0.Add(dur)
	stopMon := func() []checkpoint { return nil }
	if dur > 0 {
		stopMon = monitor(t0, markEvery, &completed)
	}
	res := runClients(p, clients, sb, func(c *client) {
		for {
			i := next.Add(1) - 1
			if limit > 0 && i >= int64(limit) {
				return
			}
			if dur > 0 && time.Now().After(deadline) {
				return
			}
			root := c.sb.begin("op", -1, i)
			c.do(ops[i%int64(len(ops))], i, root)
			c.sb.end(root)
			completed.Add(1)
		}
	})
	res.elapsed = time.Since(t0)
	res.marks = stopMon()
	return res
}

// openLoop runs the latency leg: op i is due at start + i/rate, whatever
// happened to earlier ops. A pacer hands due ops to the clients in order
// and each op is timed from when it was due, so a stall is charged to
// every op queued behind it. Ops sent after the schedule ended count in
// backlogEnd; ops not sent within three schedule lengths are dropped and
// counted there too.
func openLoop(p *pair, ops []op, clients int, rate float64, dur time.Duration, sb *spanBuf) legResult {
	total := int64(dur.Seconds() * rate)
	gap := float64(time.Second) / rate
	dueAt := func(i int64) time.Duration { return time.Duration(float64(i) * gap) }
	// Sized for one second of backlog at the highest frozen rate, so the
	// pacer keeps its schedule through any stall shorter than that.
	queue := make(chan int64, 16384)
	t0 := time.Now()
	var completed, backlog atomic.Int64
	stopMon := monitor(t0, latWindow, &completed)
	var pacer sync.WaitGroup
	pacer.Add(1)
	go func() {
		defer pacer.Done()
		defer close(queue)
		pace(t0, total, dueAt, 3*dur, queue, &backlog)
	}()
	res := runClients(p, clients, sb, func(c *client) {
		for i := range queue {
			due := dueAt(i)
			sent := time.Since(t0)
			if sent > dur {
				backlog.Add(1)
			}
			o := ops[i%int64(len(ops))]
			root := c.sb.begin("op", -1, i)
			ok := c.do(o, i, root)
			c.sb.end(root)
			if ok {
				c.res.lat = append(c.res.lat, sample{
					due: due, ms: float64(time.Since(t0)-due) / 1e6,
					lagMs: float64(sent-due) / 1e6, read: o.read,
				})
			}
			completed.Add(1)
		}
	})
	pacer.Wait()
	res.elapsed = time.Since(t0)
	res.marks = stopMon()
	res.backlogEnd = backlog.Load()
	return res
}

// latencies returns the sorted latencies (ms) of the samples keep selects.
func latencies(ss []sample, keep func(sample) bool) []float64 {
	var out []float64
	for _, s := range ss {
		if keep(s) {
			out = append(out, s.ms)
		}
	}
	return sortedCopy(out)
}

// nodeSnap is the writer's counters at one instant, read through the
// node's locked accessors only.
type nodeSnap struct {
	st  cluster.LiveStats
	str cluster.StreamStats
}

func snapNode(n *cluster.LiveNode) nodeSnap {
	return nodeSnap{st: n.Stats(), str: n.StreamStats()}
}

// flashWork is the home device's host programs, GC copies and erases
// between two snapshots, plus the victim tier's programs and erases.
func flashWork(a, b nodeSnap) (programs, copies, erases int64) {
	for i := range b.str.Programs {
		programs += b.str.Programs[i] - a.str.Programs[i]
	}
	for i := range b.str.Copies {
		copies += b.str.Copies[i] - a.str.Copies[i]
		erases += b.str.Erases[i] - a.str.Erases[i]
	}
	programs += b.st.VictimPrograms - a.st.VictimPrograms
	erases += b.st.VictimErases - a.st.VictimErases
	return programs, copies, erases
}

// scratchDir is where file-backed stores live: inside the checkout.
func scratchDir(root, workload string) (string, error) {
	dir := filepath.Join(root, "data", workload)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return dir, nil
}
