package main

import (
	"context"
	"math"
	"net"
	"os"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/blockstore"
	"repro/internal/obs"
	"repro/internal/transport"
)

// miniWorkloads are the real workloads scaled down for unit tests:
// bulk objects shrink to 1 MiB in 64 KiB blocks and key counts to 8.
func miniWorkloads(t *testing.T) []workload {
	var out []workload
	for _, w := range workloads {
		if w.objBytes > mib {
			w.objBytes, w.blockBytes = mib, 64*kib
			w.chunkBytes = min(w.chunkBytes, 512*kib)
		}
		w.liveKeys = min(w.liveKeys, 8)
		w.preloadWorkers = 2
		out = append(out, w)
	}
	return out
}

func TestSeedReproducesInputs(t *testing.T) {
	for _, w := range miniWorkloads(t) {
		a, b, other := newInputs(w, 7), newInputs(w, 7), newInputs(w, 8)
		if checksum(a.pool) != checksum(b.pool) || !reflect.DeepEqual(a.initial, b.initial) ||
			!reflect.DeepEqual(a.profiles, b.profiles) {
			t.Fatalf("%s: seed 7 produced different pools, preloads or server profiles", w.name)
		}
		if checksum(a.pool) == checksum(other.pool) {
			t.Fatalf("%s: seeds 7 and 8 produced the same pool", w.name)
		}
		for id := 0; id < w.workers; id++ {
			sa, sb, so := a.stream(id), b.stream(id), other.stream(id)
			differs := false
			for i := 0; i < 500; i++ {
				oa, ob, oo := sa.next(), sb.next(), so.next()
				if oa != ob {
					t.Fatalf("%s stream %d op %d: %+v vs %+v", w.name, id, i, oa, ob)
				}
				if payloadSum(a, oa) != payloadSum(b, ob) {
					t.Fatalf("%s stream %d op %d: payload hashes differ", w.name, id, i)
				}
				differs = differs || oa != oo
			}
			if !differs {
				t.Fatalf("%s stream %d: seeds 7 and 8 produced the same ops", w.name, id)
			}
		}
	}
}

// payloadSum hashes the bytes an op hands to the program.
func payloadSum(in *inputs, o op) uint32 {
	switch o.kind {
	case opWrite:
		return checksum(in.pool[o.src : o.src+in.w.objBytes])
	case opUpdate:
		return checksum(in.pool[o.src : o.src+in.w.patchBytes])
	}
	return 0
}

func TestOpMixMatchesWorkload(t *testing.T) {
	for _, w := range miniWorkloads(t) {
		in := newInputs(w, 3)
		count := map[opKind]int{}
		keys := map[int]int{}
		const n = 20000
		s := in.stream(0)
		var last time.Duration
		for i := 0; i < n; i++ {
			o := s.next()
			count[o.kind]++
			keys[o.key]++
			if w.rate > 0 {
				if o.due < last {
					t.Fatalf("%s: arrivals out of order", w.name)
				}
				last = o.due
			}
		}
		if got := float64(count[opRead]) / n * 100; math.Abs(got-float64(w.readPct)) > 2 {
			t.Errorf("%s: %.1f%% reads, want %d%%", w.name, got, w.readPct)
		}
		if got := float64(count[opWrite]) / n * 100; math.Abs(got-float64(w.writePct)) > 2 {
			t.Errorf("%s: %.1f%% writes, want %d%%", w.name, got, w.writePct)
		}
		if w.rate > 0 {
			if got := float64(n) / last.Seconds(); math.Abs(got-w.rate)/w.rate > 0.05 {
				t.Errorf("%s: offered %.1f ops/s, want %.1f", w.name, got, w.rate)
			}
			if keys[0] < 5*keys[w.liveKeys/2] {
				t.Errorf("%s: key popularity not skewed: key 0 %d, key %d %d", w.name, keys[0], w.liveKeys/2, keys[w.liveKeys/2])
			}
		} else if len(keys) != len(s.keys) {
			t.Errorf("%s: worker 0 touched %d keys, owns %d", w.name, len(keys), len(s.keys))
		}
	}
}

// TestWrappersKeepOptionalInterfaces pins the tracing wrappers to the
// exact capability set of what they wrap: the robust client and the
// transport server pick wire paths by type assertion, so a missing or
// extra method would silently change what a traced run measures. The
// server stores checked are the ones each workload serves.
func TestWrappersKeepOptionalInterfaces(t *testing.T) {
	if testing.Short() {
		t.Skip("boots clusters")
	}
	tr := newTracer()
	for _, w := range miniWorkloads(t) {
		c, err := boot(newInputs(w, 3), t.TempDir(), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		inner := c.stores[0]
		c.close()
		wrapped := tr.wrapServer("s", inner)
		_, ib := inner.(blockstore.Batcher)
		_, wb := wrapped.(blockstore.Batcher)
		_, is := inner.(blockstore.Scrubber)
		_, ws := wrapped.(blockstore.Scrubber)
		if ib != wb || is != ws {
			t.Errorf("%T: wrapper Batcher %v Scrubber %v, inner %v %v", inner, wb, ws, ib, is)
		}
	}
	if got, want := methods(reflect.TypeOf(&tracedConn{})), methods(reflect.TypeOf(&transport.Client{})); !reflect.DeepEqual(got, want) {
		t.Errorf("tracedConn methods %v, transport.Client methods %v", got, want)
	}
}

func methods(t reflect.Type) []string {
	var out []string
	for i := 0; i < t.NumMethod(); i++ {
		out = append(out, t.Method(i).Name)
	}
	sort.Strings(out)
	return out
}

// TestTracingKeepsServerOpMix runs the same short op sequence on a
// traced and an untraced cluster of every workload and compares the
// servers' per-op request counters: tracing must not move traffic
// between wire ops.
func TestTracingKeepsServerOpMix(t *testing.T) {
	if testing.Short() {
		t.Skip("boots clusters")
	}
	for _, w := range miniWorkloads(t) {
		in := newInputs(w, 5)
		untraced := serverOpShares(t, in, nil)
		traced := serverOpShares(t, in, newTracer())
		for op := range mergeKeys(untraced, traced) {
			u, tr := untraced[op], traced[op]
			if (max(u, tr) >= 0.05 && min(u, tr) == 0) || math.Abs(u-tr) > 0.1 {
				t.Errorf("%s: %s share untraced %.3f traced %.3f", w.name, op, u, tr)
			}
		}
	}
}

// serverOpShares boots a cluster, runs 40 ops of the workload's first
// stream one at a time, and returns each server op's share of the
// requests the servers saw after preload.
func serverOpShares(t *testing.T, in *inputs, tr *tracer) map[string]float64 {
	reg := obs.NewRegistry()
	c, err := boot(in, t.TempDir(), tr, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	keys := newKeys(in)
	if err := c.preload(context.Background(), in, keys); err != nil {
		t.Fatal(err)
	}
	before := reg.Snapshot().Counters
	p := &phase{in: in, c: c, keys: keys, tr: tr}
	if tr != nil {
		tr.enabled.Store(true)
	}
	s := in.stream(0)
	var scratch []byte
	for i := 0; i < 40; i++ {
		p.exec(s.next(), time.Now(), &scratch)
	}
	if p.failed() != 0 {
		t.Fatalf("%s: %d of %d ops failed: %v", in.w.name, p.failed(), p.attempted(), p.errs[0])
	}
	if tr != nil && len(tr.spans) == 0 {
		t.Fatalf("%s: traced run recorded no spans", in.w.name)
	}
	shares := map[string]float64{}
	var total float64
	after := reg.Snapshot().Counters
	for _, op := range serverOps {
		name := "transport_server_" + op + "_total"
		if d := float64(after[name] - before[name]); d > 0 {
			shares[op] = d
			total += d
		}
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares
}

// serverOps are the wire ops a transport server counts per request.
var serverOps = []string{"put", "get", "delete", "list", "ping", "scrub", "put_batch", "get_batch",
	"delete_batch", "caps", "mux_upgrade", "put_stream"}

func mergeKeys(a, b map[string]float64) map[string]bool {
	out := map[string]bool{}
	for k := range a {
		out[k] = true
	}
	for k := range b {
		out[k] = true
	}
	return out
}

// TestReadCheckCatchesWrongContent proves the correctness check is
// live: a key whose stored bytes no longer match the generator's
// record fails its next read.
func TestReadCheckCatchesWrongContent(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a cluster")
	}
	w := miniWorkloads(t)[0]
	in := newInputs(w, 9)
	c, err := boot(in, t.TempDir(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	keys := newKeys(in)
	if err := c.preload(context.Background(), in, keys); err != nil {
		t.Fatal(err)
	}
	p := &phase{in: in, c: c, keys: keys}
	var scratch []byte
	p.exec(op{kind: opRead, key: 1}, time.Now(), &scratch)
	if p.failed() != 0 {
		t.Fatalf("clean read failed: %v", p.errs[0])
	}
	keys[1].sum++ // the record now disagrees with what is stored
	p.exec(op{kind: opRead, key: 1}, time.Now(), &scratch)
	if p.failed() != 1 {
		t.Fatalf("read of mismatched content passed the check")
	}
}

// TestTeardownLeavesNothing boots and tears down clusters back to back
// and checks that no directory, listener or goroutine survives.
func TestTeardownLeavesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("boots clusters")
	}
	base := runtime.NumGoroutine()
	tmp := t.TempDir()
	for _, w := range miniWorkloads(t) {
		in := newInputs(w, 11)
		c, err := boot(in, tmp, newTracer(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.preload(context.Background(), in, newKeys(in)); err != nil {
			t.Fatal(err)
		}
		var addrs []string
		for _, conn := range c.conns {
			addrs = append(addrs, conn.Addr())
		}
		if err := c.close(); err != nil {
			t.Fatal(err)
		}
		if err := checkIsolation(tmp, base); err != nil {
			t.Fatal(err)
		}
		for _, a := range addrs {
			if conn, err := net.DialTimeout("tcp", a, time.Second); err == nil {
				conn.Close()
				t.Fatalf("%s: server %s still accepts connections after teardown", w.name, a)
			}
		}
		if _, err := os.Stat(c.dir); !os.IsNotExist(err) {
			t.Fatalf("%s: cluster dir %s survived teardown", w.name, c.dir)
		}
	}
}

func TestCovered(t *testing.T) {
	ivs := []interval{{0, 10}, {5, 15}, {20, 30}, {25, 26}}
	if got := covered(ivs, 0, 100); got != 25 {
		t.Fatalf("union = %d, want 25", got)
	}
	if got := covered(ivs, 8, 22); got != 9 {
		t.Fatalf("clipped union = %d, want 9", got)
	}
	if got := covered(nil, 0, 10); got != 0 {
		t.Fatalf("empty union = %d", got)
	}
}

// TestOpQueueSkipsBusyKeys checks the open-loop dispatcher: a request
// for a key another worker is serving does not block later requests
// for other keys, and one key's requests leave in arrival order.
func TestOpQueueSkipsBusyKeys(t *testing.T) {
	q := newOpQueue()
	for i, k := range []int{0, 0, 1} {
		q.push(op{key: k, due: time.Duration(i)})
	}
	q.close()
	a, _ := q.take() // key 0, first
	b, _ := q.take() // key 0 is busy, so key 1
	if a.key != 0 || a.due != 0 || b.key != 1 {
		t.Fatalf("took %+v then %+v, want key 0 then key 1", a, b)
	}
	q.done(a.key)
	c, _ := q.take()
	if c.key != 0 || c.due != 1 {
		t.Fatalf("took %+v, want the second key-0 request", c)
	}
	q.done(b.key)
	q.done(c.key)
	if _, ok := q.take(); ok {
		t.Fatal("closed, drained queue returned a request")
	}
}
