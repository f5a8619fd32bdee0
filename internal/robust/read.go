package robust

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ltcode"
)

// Read reconstructs a segment speculatively (§4.3.3): workers fan out
// block requests to every holder in parallel, each delivered block
// feeds the incremental peeling decoder, and the moment decoding
// completes every outstanding request is canceled. Missing blocks and
// failing servers are tolerated while any decodable subset survives.
func (c *Client) Read(ctx context.Context, name string) ([]byte, ReadStats, error) {
	unlock, err := c.meta.LockRead(ctx, name)
	if err != nil {
		return nil, ReadStats{}, err
	}
	defer unlock()
	return c.readLocked(ctx, name)
}

// readLocked performs the read while the caller holds a lock (shared
// by Read and Update).
func (c *Client) readLocked(ctx context.Context, name string) (data []byte, stats ReadStats, err error) {
	start := time.Now()
	tr := c.obs.StartTrace("read", name)
	defer func() {
		c.m.reads.Inc()
		c.m.readBlocks.Add(int64(stats.Received))
		c.m.readFailedGets.Add(int64(stats.FailedGets))
		c.m.readBytes.Add(int64(len(data)))
		c.m.readLatency.Observe(time.Since(start).Seconds())
		if err != nil {
			c.m.readErrors.Inc()
		}
		tr.End(err)
	}()
	seg, err := c.meta.LookupSegment(name)
	if err != nil {
		return nil, ReadStats{}, err
	}
	tr.Stage("lookup")
	// One decoder per chunk: a chunked segment decodes each chunk's
	// graph independently (shares route to their chunk by index
	// stride), a legacy segment is a single chunk covering everything.
	// The decoders recover blocks straight into the buffer Read
	// returns; only each chunk's zero-padded tail block decodes into a
	// scratch block of its own, whose payload prefix is copied over at
	// the end.
	views := segmentChunks(seg)
	out := make([]byte, seg.Size)
	decs := make([]*ltcode.Decoder, len(views))
	tails := make([]decodeTail, 0, len(views))
	for i, v := range views {
		graph, gerr := c.cachedGraph(v.coding)
		if gerr != nil {
			return nil, ReadStats{}, gerr
		}
		dst, tail := decodeDest(out[v.offset:v.offset+v.size], graph.K, seg.Coding.BlockBytes)
		tails = append(tails, tail...)
		if decs[i], gerr = ltcode.NewDecoderInto(graph, dst); gerr != nil {
			return nil, ReadStats{}, gerr
		}
	}
	if tr != nil {
		tr.Stagef("graph", "K=%d N=%d chunks=%d", seg.Coding.K, seg.Coding.N, len(views))
	}

	fx := newFetcher(c, name, seg.Coding.ShareCRC, seg.Placement)
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()

	window := batchBlocks
	var (
		wg     sync.WaitGroup
		failed atomic.Int64
		// Stage markers raced for by the fan-out workers: the first
		// delivered block and a worker observing completion and
		// canceling the rest (§4.3.3 early cancellation).
		firstByte, earlyCancel atomic.Bool
	)
	// Fan out to the attached holders the failure detector has not
	// evicted. If exclusion would silence every holder, fall back to
	// all attached ones: a read against suspect servers can still
	// succeed (and its outcomes refresh the detector), a read against
	// nobody cannot.
	targets := make(map[string]backend, len(seg.Placement))
	skipped := make(map[string]backend)
	for addr := range seg.Placement {
		store, ok := c.backend(addr)
		if !ok {
			continue // server gone; speculative access shrugs
		}
		if c.excluded(addr) {
			skipped[addr] = store
			continue
		}
		targets[addr] = store
	}
	if len(targets) == 0 {
		targets = skipped
	}
	if tr != nil {
		tr.Stagef("fanout", "servers=%d excluded=%d", len(targets), len(seg.Placement)-len(targets))
	}
	// The decoder runs on its own goroutine fed by a channel: LT
	// peeling is inherently single-threaded, and funneling shares
	// through a channel keeps the decoder lock (and its contention)
	// out of the network workers' hot path entirely. The goroutine
	// owns the decoder, the per-server receive counts, and the
	// rejected-share count; all are read only after it exits.
	type deliveredShare struct {
		addr    string
		idx     int
		payload []byte
	}
	shares := make(chan deliveredShare, 4*window)
	decodeDone := make(chan struct{})
	received := make(map[string]int, len(targets))
	rejected := 0
	var decComplete atomic.Bool
	go func() {
		defer close(decodeDone)
		remaining := len(views)
		for s := range shares {
			ci, local, ok := chunkFor(views, seg.ChunkStride, s.idx)
			if !ok {
				// No chunk owns this index (corrupt metadata or
				// placement). Neither a failed GET nor a CRC reject;
				// count it instead of dropping it silently.
				rejected++
				c.m.readRejectedShares.Inc()
				continue
			}
			dec := decs[ci]
			if dec.Complete() {
				continue // drain so no worker blocks on send
			}
			if _, aerr := dec.AddData(local, s.payload); aerr != nil {
				// The chunk's graph cannot place this share either.
				rejected++
				c.m.readRejectedShares.Inc()
				continue
			}
			received[s.addr]++
			if dec.Complete() {
				if remaining--; remaining == 0 {
					decComplete.Store(true)
					tr.Stage("decode-complete")
					cancel()
				}
			}
		}
	}()
	for addr, indices := range seg.Placement {
		store, ok := targets[addr]
		if !ok {
			continue
		}
		// Split the server's block list among its worker pipelines;
		// each pipeline walks its share of the list in windows, one
		// GetStream call each.
		for w := 0; w < c.opts.PerServerParallel; w++ {
			wg.Add(1)
			go func(addr string, store backend, mine []int) {
				defer wg.Done()
				deliver := func(idx int, payload []byte) {
					if !firstByte.Swap(true) {
						tr.StageDetail("first-byte", addr)
					}
					select {
					case shares <- deliveredShare{addr: addr, idx: idx, payload: payload}:
					case <-rctx.Done():
					}
				}
				wf := fx.newWindowFetcher(rctx, addr, store, deliver)
				for lo := 0; lo < len(mine); lo += window {
					if rctx.Err() != nil {
						return
					}
					if decComplete.Load() {
						if !earlyCancel.Swap(true) {
							tr.Stage("early-cancel")
						}
						cancel()
						return
					}
					hi := lo + window
					if hi > len(mine) {
						hi = len(mine)
					}
					failed.Add(int64(wf.fetch(mine[lo:hi])))
				}
			}(addr, store, stripeSlice(indices, w, c.opts.PerServerParallel))
		}
	}
	wg.Wait()
	close(shares)
	<-decodeDone

	totalReceived, totalUsed := 0, 0
	complete := true
	for _, dec := range decs {
		totalReceived += dec.Received()
		totalUsed += dec.UsedBlocks()
		complete = complete && dec.Complete()
	}
	stats = ReadStats{
		K:              seg.Coding.K,
		Received:       totalReceived,
		Reception:      float64(totalReceived)/float64(seg.Coding.K) - 1,
		Duration:       time.Since(start),
		PerServer:      received,
		FailedGets:     int(failed.Load()),
		UsedDecoder:    totalUsed,
		CorruptShares:  int(fx.corrupt.Load()),
		RejectedShares: rejected,
		Hedges:         int(fx.hedges.Load()),
		HedgeWins:      int(fx.hedgeWins.Load()),
	}
	if tr != nil {
		tr.Stagef("per-server", "blocks=%v failed-gets=%d corrupt=%d rejected=%d hedges=%d/%d",
			received, stats.FailedGets, stats.CorruptShares, stats.RejectedShares, stats.HedgeWins, stats.Hedges)
	}
	if err := ctx.Err(); err != nil {
		return nil, stats, err
	}
	if !complete {
		return nil, stats, ErrUnrecoverable
	}
	for _, t := range tails {
		copy(t.dst, t.block)
	}
	return out, stats, nil
}

// decodeTail is a chunk block decoded into scratch because it extends
// past the chunk's payload: its prefix belongs in dst.
type decodeTail struct {
	dst, block []byte
}

// decodeDest lays out the k decode destinations of one chunk whose
// payload is chunk: every block that lies wholly inside it aliases it
// in place, the rest (the zero-padded tail) get scratch blocks.
func decodeDest(chunk []byte, k int, blockBytes int64) ([][]byte, []decodeTail) {
	bb := int(blockBytes)
	dst := make([][]byte, k)
	var tails []decodeTail
	for j := range dst {
		lo, hi := j*bb, (j+1)*bb
		if hi <= len(chunk) {
			dst[j] = chunk[lo:hi:hi]
			continue
		}
		dst[j] = make([]byte, bb)
		if lo < len(chunk) {
			tails = append(tails, decodeTail{dst: chunk[lo:], block: dst[j]})
		}
	}
	return dst, tails
}

// stripeSlice deals element i of xs to worker i mod workers.
func stripeSlice(xs []int, worker, workers int) []int {
	var out []int
	for i := worker; i < len(xs); i += workers {
		out = append(out, xs[i])
	}
	return out
}

// ReadAt reconstructs length bytes starting at offset. LT codes are
// non-systematic — any read must decode the whole segment (§6.2: "only
// whole blocks can be applied to block-XOR operations") — so this is a
// convenience slice over a full speculative read, not a short-circuit;
// the stats reflect the full-segment access.
func (c *Client) ReadAt(ctx context.Context, name string, offset, length int64) ([]byte, ReadStats, error) {
	if offset < 0 || length < 0 {
		return nil, ReadStats{}, errOffset
	}
	data, stats, err := c.Read(ctx, name)
	if err != nil {
		return nil, stats, err
	}
	if offset > int64(len(data)) {
		return nil, stats, errOffset
	}
	end := offset + length
	if end > int64(len(data)) {
		end = int64(len(data))
	}
	return data[offset:end], stats, nil
}

var errOffset = fmt.Errorf("robust: read range out of bounds")

// Stat returns a segment's metadata record.
func (c *Client) Stat(name string) (SegmentInfo, error) {
	seg, err := c.meta.LookupSegment(name)
	if err != nil {
		return SegmentInfo{}, err
	}
	info := SegmentInfo{
		Name:       seg.Name,
		Size:       seg.Size,
		K:          seg.Coding.K,
		N:          seg.Coding.N,
		BlockBytes: seg.Coding.BlockBytes,
		Version:    seg.Version,
		Servers:    make(map[string]int, len(seg.Placement)),
	}
	for addr, idx := range seg.Placement {
		info.Servers[addr] = len(idx)
	}
	return info, nil
}

// SegmentInfo is the public view of a stored segment.
type SegmentInfo struct {
	Name       string
	Size       int64
	K, N       int
	BlockBytes int64
	Version    int64
	Servers    map[string]int // address -> blocks held
}
