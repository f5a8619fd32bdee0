package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/robust"
)

// opTimeout bounds one op; a hung op counts as failed instead of
// hanging the run.
const opTimeout = 60 * time.Second

// keyState is the generator's record of a key's last acked content:
// its live version, the pool window it was written from, the updates
// applied since, and the checksum of the resulting bytes. mu
// serializes ops on the key.
type keyState struct {
	mu      sync.Mutex
	version int
	base    int64
	patches []patch
	sum     uint32
}

func newKeys(in *inputs) []*keyState {
	keys := make([]*keyState, in.w.liveKeys)
	for k := range keys {
		base := in.initial[k]
		keys[k] = &keyState{base: base, sum: checksum(in.pool[base : base+in.w.objBytes])}
	}
	return keys
}

// result is one completed op.
type result struct {
	kind    opKind
	latency time.Duration
	failed  bool
	read    robust.ReadStats
	write   robust.WriteStats
}

// phase is one measured interval on one cluster.
type phase struct {
	in      *inputs
	c       *cluster
	keys    []*keyState
	tr      *tracer // nil when untraced
	elapsed time.Duration
	// elections counts metadata leader elections during the phase (the
	// group's term advance): each one stalls metadata commits and locks.
	elections uint64

	mu      sync.Mutex
	results []result
	errs    []error
	lags    []time.Duration // open-loop dispatch lateness

	allocBytes uint64
	peakHeap   uint64
	cpu        time.Duration // process CPU time: client, servers and metadata group
}

// measure drives the workload for d and returns what completed. Ops
// started before the deadline run to completion and count.
func measure(c *cluster, in *inputs, keys []*keyState, d time.Duration, tr *tracer) *phase {
	p := &phase{in: in, c: c, keys: keys, tr: tr}
	stopHeap := p.sampleHeap()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	alloc0 := mem.TotalAlloc
	term0 := c.term()
	cpu0 := cpuTime()
	if tr != nil {
		tr.enabled.Store(true)
	}
	start := time.Now()
	var wg sync.WaitGroup
	if in.w.rate > 0 {
		p.openLoop(start, d, &wg)
	} else {
		for wk := 0; wk < in.w.workers; wk++ {
			s := in.stream(wk)
			wg.Add(1)
			go func() {
				defer wg.Done()
				var scratch []byte
				for time.Since(start) < d {
					p.exec(s.next(), time.Now(), &scratch)
					time.Sleep(in.w.think)
				}
			}()
		}
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	p.elections = c.term() - term0
	p.cpu = cpuTime() - cpu0
	if tr != nil {
		tr.enabled.Store(false)
	}
	runtime.ReadMemStats(&mem)
	p.allocBytes = mem.TotalAlloc - alloc0
	p.peakHeap = stopHeap()
	return p
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// openLoop dispatches the seeded arrival stream to at most
// w.workers goroutines; each request is timed from its due time.
func (p *phase) openLoop(start time.Time, d time.Duration, wg *sync.WaitGroup) {
	q := newOpQueue()
	for wk := 0; wk < p.in.w.workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var scratch []byte
			for {
				o, ok := q.take()
				if !ok {
					return
				}
				p.exec(o, start.Add(o.due), &scratch)
				q.done(o.key)
			}
		}()
	}
	s := p.in.stream(0)
	for {
		o := s.next()
		if o.due >= d {
			break
		}
		if wait := time.Until(start.Add(o.due)); wait > 0 {
			time.Sleep(wait)
		}
		lag := time.Since(start.Add(o.due))
		p.mu.Lock()
		p.lags = append(p.lags, lag)
		p.mu.Unlock()
		q.push(o)
	}
	q.close()
}

// opQueue holds due open-loop requests. A worker takes the oldest
// request whose key no other worker is serving, so a request for a
// busy (Zipf-hot) key waits for its key without blocking requests for
// other keys behind it, and requests on one key still run in arrival
// order.
type opQueue struct {
	mu      sync.Mutex
	cond    *sync.Cond
	pending []op
	busy    map[int]bool
	closed  bool
}

func newOpQueue() *opQueue {
	q := &opQueue{busy: map[int]bool{}}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *opQueue) push(o op) {
	q.mu.Lock()
	q.pending = append(q.pending, o)
	q.mu.Unlock()
	q.cond.Broadcast()
}

func (q *opQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// take blocks until a request is runnable and returns it, or returns
// false once the queue is closed and drained.
func (q *opQueue) take() (op, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		for i, o := range q.pending {
			if !q.busy[o.key] {
				q.pending = append(q.pending[:i], q.pending[i+1:]...)
				q.busy[o.key] = true
				return o, true
			}
		}
		if q.closed && len(q.pending) == 0 {
			return op{}, false
		}
		q.cond.Wait()
	}
}

// done releases a key taken with take.
func (q *opQueue) done(key int) {
	q.mu.Lock()
	delete(q.busy, key)
	q.mu.Unlock()
	q.cond.Broadcast()
}

// sampleHeap tracks the peak live heap — the bytes each garbage
// collection found reachable — until the returned func is called;
// that func returns the peak in bytes.
func (p *phase) sampleHeap() func() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	var peak atomic.Uint64
	read := func() {
		metrics.Read(sample)
		if v := sample[0].Value.Uint64(); v > peak.Load() {
			peak.Store(v)
		}
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			read()
			select {
			case <-stop:
				return
			case <-t.C:
			}
		}
	}()
	return func() uint64 {
		close(stop)
		<-done
		read()
		return peak.Load()
	}
}

// exec runs one op against its key and checks the outcome: a read
// must return the last acked content, a write must commit at least N
// blocks, and every call must succeed.
func (p *phase) exec(o op, t0 time.Time, scratch *[]byte) {
	w := p.in.w
	ks := p.keys[o.key]
	ks.mu.Lock()
	defer ks.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()

	name := segName(o.key, ks.version)
	segs := []string{name}
	r := result{kind: o.kind}
	var err error
	var opID int32
	var opStart int64
	if p.tr != nil {
		opID = p.tr.beginOp(name)
		opStart = p.tr.now()
	}
	switch o.kind {
	case opRead:
		var data []byte
		data, r.read, err = p.c.client.Read(ctx, name)
		r.latency = time.Since(t0)
		if err == nil && (int64(len(data)) != w.objBytes || checksum(data) != ks.sum) {
			err = fmt.Errorf("read %s: content differs from the last acked write", name)
		}
	case opWrite:
		next := segName(o.key, ks.version+1)
		segs = append(segs, next)
		if p.tr != nil {
			p.tr.own(opID, next)
		}
		r.write, err = p.c.write(ctx, p.in, next, o.src)
		r.latency = time.Since(t0)
		if err == nil {
			ks.version++
			ks.base, ks.patches = o.src, nil
			ks.sum = checksum(p.in.pool[o.src : o.src+w.objBytes])
		}
	case opUpdate:
		err = p.c.client.Update(ctx, name, o.off, p.in.pool[o.src:o.src+w.patchBytes])
		r.latency = time.Since(t0)
		if err == nil {
			ks.patches = append(ks.patches, patch{off: o.off, src: o.src})
			*scratch = p.in.content(*scratch, ks.base, ks.patches)
			ks.sum = checksum(*scratch)
		}
	}
	if p.tr != nil {
		p.tr.recordOp(opID, o.kind, name, opStart, p.tr.now(), err != nil)
	}
	// The superseded version is deleted after the ack, outside the
	// timed interval; its calls still belong to the write.
	if o.kind == opWrite && err == nil {
		if derr := p.c.client.Delete(ctx, name); derr != nil {
			err = fmt.Errorf("delete superseded %s: %w", name, derr)
		}
	}
	if p.tr != nil {
		p.tr.endOp(segs...)
	}
	r.failed = err != nil
	p.mu.Lock()
	p.results = append(p.results, r)
	if err != nil {
		p.errs = append(p.errs, fmt.Errorf("%s key %d: %w", o.kind, o.key, err))
	}
	p.mu.Unlock()
}

// attempted counts ops the phase issued.
func (p *phase) attempted() int { return len(p.results) }

func (p *phase) failed() int { return len(p.errs) }

// latencies returns the sorted values of f over successful ops of a
// kind.
func (p *phase) latencies(k opKind, f func(result) float64) []float64 {
	var out []float64
	for _, r := range p.results {
		if r.kind == k && !r.failed {
			out = append(out, f(r))
		}
	}
	sort.Float64s(out)
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// userBytes returns the bytes moved by successful ops of a kind.
func (p *phase) userBytes(k opKind) int64 {
	var n int64
	for _, r := range p.results {
		if r.kind != k || r.failed {
			continue
		}
		if k == opUpdate {
			n += p.in.w.patchBytes
		} else {
			n += p.in.w.objBytes
		}
	}
	return n
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func stddev(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd computes the user-visible metrics of an untraced phase.
// gated are the ones BENCHMARK.json bounds: the read p50, the write's
// first commit, CPU, memory and I/O costs. ungated are printed for
// every run but not bounded: the write and update p50s, the tails and
// the read-latency standard deviation, whose run-to-run spread on
// small-open on a shared two-core host exceeds the largest bound the
// gate allows (STEADINESS.md); the throughputs, reported on
// closed-loop workloads only, where with a fixed think time they
// follow the p50 latencies (an open loop's throughput is its offered
// rate); and the failed-op ratio, which is zero in every run that
// passes.
func (p *phase) endToEnd() (gated, ungated map[string]metric) {
	w := p.in.w
	lat := func(r result) float64 { return ms(r.latency) }
	reads, writes, updates := p.latencies(opRead, lat), p.latencies(opWrite, lat), p.latencies(opUpdate, lat)
	firsts := p.latencies(opWrite, func(r result) float64 { return ms(r.write.FirstCommit) })
	var recv, committed int64
	for _, r := range p.results {
		if r.failed {
			continue
		}
		switch r.kind {
		case opRead:
			recv += int64(r.read.Received)
		case opWrite:
			committed += int64(r.write.Committed)
		}
	}
	readB, writeB, updB := p.userBytes(opRead), p.userBytes(opWrite), p.userBytes(opUpdate)
	ops := len(reads) + len(writes) + len(updates)
	gated = map[string]metric{
		"read_p50_ms":           {percentile(reads, 50), "ms"},
		"write_first_commit_ms": {percentile(firsts, 50), "ms"},
		"cpu_ms_per_op":         {ms(p.cpu) / float64(ops), "ms"},
		"read_io_overhead":      {float64(recv*w.blockBytes) / float64(readB), "ratio"},
		"write_io_overhead":     {float64(committed*w.blockBytes) / float64(writeB), "ratio"},
		"alloc_per_byte":        {float64(p.allocBytes) / float64(readB+writeB+updB), "B/B"},
		"peak_heap_mb":          {float64(p.peakHeap) / 1e6, "MB"},
	}
	ungated = map[string]metric{
		"write_p50_ms":     {percentile(writes, 50), "ms"},
		"update_p50_ms":    {percentile(updates, 50), "ms"},
		"read_tail_ms":     {percentile(reads, w.readTailPct), "ms"},
		"write_tail_ms":    {percentile(writes, w.writeTailPct), "ms"},
		"read_sd_ms":       {stddev(reads), "ms"},
		"failed_ops_ratio": {float64(p.failed()) / float64(p.attempted()), "ratio"},
	}
	if w.rate == 0 {
		secs := p.elapsed.Seconds()
		ungated["read_MBps"] = metric{float64(readB) / 1e6 / secs, "MB/s"}
		ungated["write_MBps"] = metric{float64(writeB) / 1e6 / secs, "MB/s"}
	}
	return gated, ungated
}

// report prints the phase's op counts and the sample counts behind its
// tail percentiles.
func (p *phase) report(out io.Writer) {
	w := p.in.w
	n := map[opKind]int{}
	for _, r := range p.results {
		if !r.failed {
			n[r.kind]++
		}
	}
	fmt.Fprintf(out, "ops: %d reads, %d writes, %d updates in %.2f s; tails = p%g/p%g; %d metadata elections\n",
		n[opRead], n[opWrite], n[opUpdate], p.elapsed.Seconds(), w.readTailPct, w.writeTailPct, p.elections)
	for _, t := range []struct {
		k   opKind
		pct float64
	}{{opRead, w.readTailPct}, {opWrite, w.writeTailPct}} {
		fmt.Fprintf(out, "%s_tail_ms: p%g of %d samples (%.1f beyond)\n", t.k, t.pct, n[t.k], float64(n[t.k])*(100-t.pct)/100)
	}
}
