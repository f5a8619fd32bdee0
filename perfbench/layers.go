package main

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/ltcode"
	"repro/internal/metadata"
)

// interval is a [start, end) span of tracer time in nanoseconds.
type interval struct{ start, end int64 }

// covered returns the length of the union of ivs clipped to [lo, hi).
func covered(ivs []interval, lo, hi int64) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		s, e := max(iv.start, lo), min(iv.end, hi)
		if s < e {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total, curS, curE int64
	for i, iv := range clipped {
		if i == 0 || iv.start > curE {
			total += curE - curS
			curS, curE = iv.start, iv.end
		} else if iv.end > curE {
			curE = iv.end
		}
	}
	return total + curE - curS
}

// ratio is a/b, or 0 when b is 0 (a layer that did no such work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// transportKinds are the client call kinds reported as
// transport.<kind>_call_ms.
var transportKinds = []string{"get", "getbatch", "getstream", "put", "putbatch", "putstream", "delete"}

// layerMetrics attributes a traced phase's time and work to the
// robust, metadata, transport, blockstore and loadgen layers.
func layerMetrics(p *phase, tr *tracer) map[string]metric {
	window := float64(p.elapsed.Nanoseconds())
	type opInfo struct {
		kind       string
		start, end int64
		children   []interval // metadata and client transport spans
		meta       []interval
	}
	ops := map[int32]*opInfo{}
	var metaSpans, clientSpans, serverSpans []span
	for _, s := range tr.spans {
		switch s.layer {
		case layerOp:
			ops[s.op] = &opInfo{kind: s.kind, start: s.start, end: s.end}
		case layerMeta:
			metaSpans = append(metaSpans, s)
		case layerClient:
			clientSpans = append(clientSpans, s)
		case layerServer:
			serverSpans = append(serverSpans, s)
		}
	}
	nOps := float64(len(ops))
	m := map[string]metric{}

	// metadata
	metaSum := map[string][2]float64{} // kind -> {total ms, calls}
	for _, s := range metaSpans {
		v := metaSum[s.kind]
		metaSum[s.kind] = [2]float64{v[0] + ms(time.Duration(s.end-s.start)), v[1] + 1}
		if o := ops[s.op]; o != nil {
			o.children = append(o.children, interval{s.start, s.end})
			o.meta = append(o.meta, interval{s.start, s.end})
		}
	}
	for _, k := range []string{metaLock, metaLookup, metaCommit} {
		m["metadata."+k+"_ms"] = metric{ratio(metaSum[k][0], metaSum[k][1]), "ms"}
	}
	m["metadata.elections"] = metric{float64(p.elections), "count"}
	m["metadata.calls_per_op"] = metric{ratio(float64(len(metaSpans)), nOps), "count"}

	// transport: each client call against the server store spans of
	// the same server and segment that started and ended inside it.
	type serverKey struct {
		server int16
		seg    string
	}
	bySrv := map[serverKey][]span{}
	for _, s := range serverSpans {
		k := serverKey{s.server, s.seg}
		bySrv[k] = append(bySrv[k], s)
	}
	callSum := map[string][2]float64{}
	var selfNs, callNs, blocks float64
	for _, c := range clientSpans {
		d := float64(c.end - c.start)
		v := callSum[c.kind]
		callSum[c.kind] = [2]float64{v[0] + d/1e6, v[1] + 1}
		callNs += d
		blocks += float64(c.blocks)
		if o := ops[c.op]; o != nil {
			o.children = append(o.children, interval{c.start, c.end})
		}
		want := map[int]bool{}
		for _, i := range c.indices {
			want[i] = true
		}
		var inner []interval
		for _, s := range bySrv[serverKey{c.server, c.seg}] {
			if s.start >= c.start && s.end <= c.end && len(s.indices) > 0 && want[s.indices[0]] {
				inner = append(inner, interval{s.start, s.end})
			}
		}
		selfNs += d - float64(covered(inner, c.start, c.end))
	}
	for _, k := range transportKinds {
		m["transport."+k+"_call_ms"] = metric{ratio(callSum[k][0], callSum[k][1]), "ms"}
	}
	nCalls := float64(len(clientSpans))
	m["transport.self_ms"] = metric{ratio(selfNs, nCalls) / 1e6, "ms"}
	m["transport.calls_per_op"] = metric{ratio(nCalls, nOps), "count"}
	m["transport.blocks_per_call"] = metric{ratio(blocks, nCalls), "count"}
	m["transport.inflight_mean"] = metric{ratio(callNs, window), "count"}

	// robust: op time not covered by any metadata or transport call.
	var opNs, opSelf, opMeta float64
	for _, o := range ops {
		d := float64(o.end - o.start)
		opNs += d
		opSelf += d - float64(covered(o.children, o.start, o.end))
		opMeta += float64(covered(o.meta, o.start, o.end))
	}
	m["robust.self_ms"] = metric{ratio(opSelf, nOps) / 1e6, "ms"}
	m["metadata.share"] = metric{ratio(opMeta, opNs), "ratio"}

	var k, recv, failedGets, hedges, wins, reads, n, committed float64
	for _, r := range p.results {
		if r.failed {
			continue
		}
		switch r.kind {
		case opRead:
			reads++
			k += float64(r.read.K)
			recv += float64(r.read.Received)
			failedGets += float64(r.read.FailedGets)
			hedges += float64(r.read.Hedges)
			wins += float64(r.read.HedgeWins)
		case opWrite:
			n += float64(r.write.N)
			committed += float64(r.write.Committed)
		}
	}
	m["robust.reception_overhead"] = metric{ratio(recv, k) - 1, "ratio"}
	m["robust.write_overshoot"] = metric{ratio(committed, n) - 1, "ratio"}
	m["robust.hedges_per_read"] = metric{ratio(hedges, reads), "count"}
	m["robust.hedge_win_ratio"] = metric{ratio(wins, hedges), "ratio"}
	m["robust.failed_share_ratio"] = metric{ratio(failedGets, recv+failedGets), "ratio"}

	// blockstore
	busy := map[int16][]interval{}
	var putNs, putBlocks, getNs, getBlocks, canceled float64
	var readBytes, writeBytes float64
	for _, s := range serverSpans {
		busy[s.server] = append(busy[s.server], interval{s.start, s.end})
		d := float64(s.end - s.start)
		if s.canceled {
			canceled++
		}
		kind := ""
		if o := ops[s.op]; o != nil {
			kind = o.kind
		}
		switch s.kind {
		case "put":
			putNs += d
			putBlocks += float64(s.blocks)
			if kind == opWrite.String() {
				writeBytes += float64(s.bytes)
			}
		case "get":
			getNs += d
			getBlocks += float64(s.blocks)
			if kind == opRead.String() {
				readBytes += float64(s.bytes)
			}
		}
	}
	var maxBusy int64
	for _, ivs := range busy {
		maxBusy = max(maxBusy, covered(ivs, math.MinInt64, math.MaxInt64))
	}
	m["blockstore.put_ms"] = metric{ratio(putNs, putBlocks) / 1e6, "ms"}
	m["blockstore.get_ms"] = metric{ratio(getNs, getBlocks) / 1e6, "ms"}
	m["blockstore.busy_share"] = metric{ratio(float64(maxBusy), window), "ratio"}
	m["blockstore.bytes_written_per_user_byte"] = metric{ratio(writeBytes, float64(p.userBytes(opWrite))), "B/B"}
	m["blockstore.bytes_read_per_user_byte"] = metric{ratio(readBytes, float64(p.userBytes(opRead))), "B/B"}
	m["blockstore.canceled_ratio"] = metric{ratio(canceled, float64(len(serverSpans))), "ratio"}

	// loadgen
	var lag float64
	for _, l := range p.lags {
		lag += ms(l)
	}
	m["loadgen.lag_ms"] = metric{ratio(lag, float64(len(p.lags))), "ms"}
	return m
}

// ltcodeProbe times the coding layer alone, through the ltcode
// package's public functions, at the geometry the client wrote seg
// with: its K, graph size, soliton parameters and block size (the
// first chunk's, for a chunked segment).
func ltcodeProbe(in *inputs, seg metadata.Segment) map[string]metric {
	cd := seg.Coding
	k, n, bb := cd.K, cd.GraphN, cd.BlockBytes
	if len(seg.Chunks) > 0 {
		k, n = seg.Chunks[0].K, seg.Chunks[0].GraphN
	}
	rng := rand.New(rand.NewSource(in.seed))
	blocks := make([][]byte, k)
	for i := range blocks {
		blocks[i] = in.pool[int64(i)*bb : int64(i+1)*bb]
	}
	coded := make([][]byte, n)
	for i := range coded {
		coded[i] = make([]byte, bb)
	}
	var buildNs, encNs, decNs, encBytes, decBytes, recv, orig float64
	deadline := time.Now().Add(time.Second)
	for iter := 0; iter < 3 || time.Now().Before(deadline); iter++ {
		p := ltcode.Params{K: k, C: cd.C, Delta: cd.Delta}
		t0 := time.Now()
		g, err := ltcode.BuildGraph(p, n, rand.New(rand.NewSource(rng.Int63())), ltcode.DefaultGraphOptions())
		if err != nil {
			break
		}
		buildNs += float64(time.Since(t0))
		t0 = time.Now()
		for i := range coded {
			coded[i] = g.EncodeBlockInto(coded[i], i, blocks)
		}
		encNs += float64(time.Since(t0))
		encBytes += float64(n) * float64(bb)
		order := rng.Perm(n)
		t0 = time.Now()
		d := ltcode.NewDecoder(g)
		got := 0
		for _, i := range order {
			if d.Complete() {
				break
			}
			if _, err := d.AddData(i, coded[i]); err != nil {
				break
			}
			got++
		}
		decNs += float64(time.Since(t0))
		decBytes += float64(k) * float64(bb)
		recv += float64(got)
		orig += float64(k)
	}
	iters := orig / float64(k)
	return map[string]metric{
		"ltcode.graph_build_us":     {buildNs / iters / 1e3, "us"},
		"ltcode.encode_MBps":        {encBytes / 1e6 / (encNs / 1e9), "MB/s"},
		"ltcode.decode_MBps":        {decBytes / 1e6 / (decNs / 1e9), "MB/s"},
		"ltcode.reception_overhead": {recv/orig - 1, "ratio"},
	}
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
