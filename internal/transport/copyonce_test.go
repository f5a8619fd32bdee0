package transport

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"repro/internal/blockstore"
)

// patternBlock fills a block with bytes that differ per (stream,
// entry) pair and per offset, so a payload that picked up bytes from
// any other frame — because a consumer kept an alias into the reused
// frame buffer — cannot compare equal.
func patternBlock(stream, entry, size int) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(stream*131 + entry*29 + i*7 + i>>8)
	}
	return b
}

// putStreamAll ships puts over one PUTSTREAM and fails the test unless
// every entry is acked without error.
func putStreamAll(t *testing.T, c *Client, segment string, puts []blockstore.BatchPut) {
	t.Helper()
	var mu sync.Mutex
	var errs []error
	err := c.PutStream(context.Background(), segment, puts, func(i int, err error) {
		if err != nil {
			mu.Lock()
			errs = append(errs, fmt.Errorf("entry %d: %w", i, err))
			mu.Unlock()
		}
	})
	if err != nil {
		t.Fatalf("PutStream %s: %v", segment, err)
	}
	for _, err := range errs {
		t.Errorf("PutStream %s: %v", segment, err)
	}
}

// getStreamAll fetches indices over GetStream and returns the blocks.
func getStreamAll(t *testing.T, c *Client, segment string, indices []int) map[int][]byte {
	t.Helper()
	var mu sync.Mutex
	got := make(map[int][]byte, len(indices))
	err := c.GetStream(context.Background(), segment, indices, func(idx int, data []byte, err error) {
		if err != nil {
			t.Errorf("GetStream %s[%d]: %v", segment, idx, err)
			return
		}
		mu.Lock()
		got[idx] = data
		mu.Unlock()
	})
	if err != nil {
		t.Fatalf("GetStream %s: %v", segment, err)
	}
	return got
}

// TestMuxCopyBudget pins the copy-once data path: a PUTSTREAM of 16 ×
// 256 KiB entries and a GetStream of the same blocks over a real
// loopback mux connection must allocate little beyond what the
// operations hand out. The store's retention copy (MemStore) and the
// caller-owned GET results are one payload-sized allocation each way;
// the bound leaves room for per-stream bookkeeping and for one pool
// miss on the 2 MiB PUTSTREAM buffer (sync.Pool keeps a per-P private
// slot), but not for a per-frame body allocation plus append-and-regrow
// reassembly, which cost about 5 and 3 payloads on the two paths.
func TestMuxCopyBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector randomly drops sync.Pool entries, so pooled buffers reallocate")
	}
	const (
		entries = 16
		size    = 256 << 10
		payload = entries * size
		bound   = 1.75 // allocated bytes per payload byte, each direction
	)
	client := startMuxPair(t, blockstore.NewMemStore(), ClientOptions{})
	puts := make([]blockstore.BatchPut, entries)
	indices := make([]int, entries)
	for i := range puts {
		puts[i] = blockstore.BatchPut{Index: i, Data: patternBlock(1, i, size)}
		indices[i] = i
	}
	// No collection during the test: a GC would empty the buffer pools
	// between rounds and charge their refill to the measured one.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// The first round dials the mux connections and warms the pools.
	putStreamAll(t, client, "warm", puts)
	getStreamAll(t, client, "warm", indices)

	allocated := func(f func()) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / payload
	}
	var got map[int][]byte
	putCost := allocated(func() { putStreamAll(t, client, "seg", puts) })
	getCost := allocated(func() { got = getStreamAll(t, client, "seg", indices) })
	for i, p := range puts {
		if !bytes.Equal(got[i], p.Data) {
			t.Fatalf("block %d read back wrong", i)
		}
	}
	t.Logf("allocated per payload byte: PutStream %.2f, GetStream %.2f", putCost, getCost)
	if putCost > bound {
		t.Errorf("PutStream allocated %.2f bytes per payload byte, want <= %.1f", putCost, bound)
	}
	if getCost > bound {
		t.Errorf("GetStream allocated %.2f bytes per payload byte, want <= %.1f", getCost, bound)
	}
}

// TestMuxFrameBufferAliasing runs many interleaved streams with
// distinct byte patterns over one mux connection — PUTSTREAMs whose
// entries straddle frame boundaries, single-frame and multi-frame
// GETs — and checks every stored and delivered payload byte for byte
// only after everything finished, when both read loops have reused
// their frame buffers many times over. A consumer that kept an alias
// into a reused buffer instead of copying fails the comparison (and,
// under -race, races with the read loop).
func TestMuxFrameBufferAliasing(t *testing.T) {
	mem := blockstore.NewMemStore()
	client := startMuxPair(t, mem, ClientOptions{MuxConns: 1})
	ctx := context.Background()
	// Entry sizes straddle the 128 KiB frame chunking in every way: a
	// sliver, just under and over one chunk, and several chunks plus a
	// remainder.
	sizes := []int{7, 100<<10 + 7, muxChunkSize - 3, muxChunkSize + 5, 3*muxChunkSize/2 + 11, 1}
	unary := []int{2 * muxChunkSize, 5000}
	const streams = 12

	var wg sync.WaitGroup
	results := make([]map[int][]byte, streams)
	for s := 0; s < streams; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			seg := fmt.Sprintf("seg-%d", s)
			puts := make([]blockstore.BatchPut, len(sizes))
			indices := make([]int, len(sizes))
			for i, n := range sizes {
				puts[i] = blockstore.BatchPut{Index: i, Data: patternBlock(s, i, n)}
				indices[i] = i
			}
			putStreamAll(t, client, seg, puts)
			// Unary ops interleave their frames with the other streams':
			// a multi-frame and a single-frame PUT request.
			for i, n := range unary {
				if err := client.Put(ctx, seg, len(sizes)+i, patternBlock(s, len(sizes)+i, n+s)); err != nil {
					t.Errorf("put %s: %v", seg, err)
				}
				indices = append(indices, len(sizes)+i)
			}
			results[s] = getStreamAll(t, client, seg, indices)
		}(s)
	}
	wg.Wait()

	for s := 0; s < streams; s++ {
		seg := fmt.Sprintf("seg-%d", s)
		for i := 0; i < len(sizes)+len(unary); i++ {
			n := 0
			if i < len(sizes) {
				n = sizes[i]
			} else {
				n = unary[i-len(sizes)] + s
			}
			want := patternBlock(s, i, n)
			stored, err := mem.Get(ctx, seg, i)
			if err != nil {
				t.Fatalf("%s[%d] not stored: %v", seg, i, err)
			}
			if !bytes.Equal(stored, want) {
				t.Errorf("%s[%d]: stored bytes differ from what was sent", seg, i)
			}
			if !bytes.Equal(results[s][i], want) {
				t.Errorf("%s[%d]: delivered bytes differ from what was stored", seg, i)
			}
		}
	}
}

// awaitPutStreamLeases waits for the outstanding PUTSTREAM buffer
// count to reach want.
func awaitPutStreamLeases(t *testing.T, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for putStreamBufLeases.Load() != want {
		if time.Now().After(deadline) {
			t.Fatalf("PUTSTREAM buffer leases = %d, want %d", putStreamBufLeases.Load(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPutStreamResetReleasesBufferOnce: a stream reset while its
// consumer holds an entry in the store, and a stream reset while its
// consumer waits for the rest of an entry, each return every entry
// buffer exactly once — and not before the consumer lets go of it.
func TestPutStreamResetReleasesBufferOnce(t *testing.T) {
	base := putStreamBufLeases.Load()
	mem := blockstore.NewMemStore()
	gate := make(chan struct{})
	var openGate sync.Once
	peer := startRawPutStreamServer(t, &gatePutStore{Store: mem, gate: gate})
	// Runs before the server's cleanup, which waits for the parked Put.
	t.Cleanup(func() { openGate.Do(func() { close(gate) }) })

	// Stream 3 parks its first entry in the store with its second
	// entry complete behind it; stream 5 stops halfway through its
	// first entry. Three entry buffers are leased.
	held := buildPutEntries([][]byte{patternBlock(3, 0, 1000), patternBlock(3, 1, 1000)})
	peer.sendPutStreamReq(3, "held", 2, held, false)
	half := buildPutEntries([][]byte{patternBlock(5, 0, 1000)})
	peer.sendPutStreamReq(5, "half", 1, half[:putEntryOverhead+300], false)
	awaitPutStreamLeases(t, base+3)

	w := &lockedWriter{w: peer.conn}
	for _, id := range []uint32{3, 5} {
		if err := writeMuxFrame(w, muxKindReset, id, nil, []byte("client gave up")); err != nil {
			t.Fatal(err)
		}
	}
	// Stream 5's consumer wakes and lets go of its partial entry;
	// stream 3's is still inside Put with an entry it reads in place,
	// so its buffers must stay leased until the Put returns.
	awaitPutStreamLeases(t, base+2)
	time.Sleep(20 * time.Millisecond)
	if got := putStreamBufLeases.Load(); got != base+2 {
		t.Fatalf("PUTSTREAM buffer leases = %d while a reset stream's entry is still in Put, want %d", got, base+2)
	}
	openGate.Do(func() { close(gate) })
	awaitPutStreamLeases(t, base)
	// Settled, not passing through: a second release would push the
	// count below base.
	time.Sleep(20 * time.Millisecond)
	if got := putStreamBufLeases.Load(); got != base {
		t.Fatalf("PUTSTREAM buffer leases = %d after both streams ended, want %d", got, base)
	}

	// The connection still serves new streams.
	peer.sendReq(9, opPing, "-", 0, nil)
	if f := peer.awaitKind(9, muxKindResp); f.status != statusOK {
		t.Fatalf("ping after resets: status %d", f.status)
	}

	// release itself is idempotent.
	ps := newMuxPutStream("seg", 1, defaultMuxWindow)
	if err := ps.feed(half[:putEntryOverhead+1], false); err != nil {
		t.Fatal(err)
	}
	ps.release()
	ps.release()
	if got := putStreamBufLeases.Load(); got != base {
		t.Fatalf("PUTSTREAM buffer leases = %d after a double release, want %d", got, base)
	}
}

// TestPutStreamUnderCredit drives a PUTSTREAM stream the way the mux
// does — a feeder that sends only while it holds credit, a consumer
// that returns an entry's credit after done — with random entry sizes
// up to a whole window and random chunking. Every entry must arrive
// intact and in order, feed must never report an overflow, and no
// entry buffer may outlive the stream.
func TestPutStreamUnderCredit(t *testing.T) {
	base := putStreamBufLeases.Load()
	const window = 4 << 10
	rng := rand.New(rand.NewSource(3))
	entries := make([][]byte, 400)
	for i := range entries {
		n := rng.Intn(window - putEntryOverhead + 1)
		if i%7 == 0 {
			n = window - putEntryOverhead // a whole window
		}
		entries[i] = patternBlock(9, i, n)
	}
	wire := buildPutEntries(entries)
	ps := newMuxPutStream("seg", len(entries), window)

	var mu sync.Mutex
	cond := sync.NewCond(&mu)
	credit := window
	feedErr := make(chan error, 1)
	go func() {
		rest := wire
		for len(rest) > 0 {
			mu.Lock()
			for credit == 0 {
				cond.Wait()
			}
			n := min(1+rng.Intn(window), credit, len(rest))
			credit -= n
			mu.Unlock()
			if err := ps.feed(rest[:n], n == len(rest)); err != nil {
				feedErr <- err
				return
			}
			rest = rest[n:]
		}
		feedErr <- nil
	}()
	for i, want := range entries {
		idx, data, consumed, err := ps.next()
		if err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		if idx != i || !bytes.Equal(data, want) {
			t.Fatalf("entry %d arrived as index %d with %d bytes, want %d intact", i, idx, len(data), len(want))
		}
		ps.done()
		mu.Lock()
		credit += consumed
		cond.Signal()
		mu.Unlock()
	}
	if _, _, _, err := ps.next(); err != io.EOF {
		t.Fatalf("after the last entry: %v, want EOF", err)
	}
	if err := <-feedErr; err != nil {
		t.Fatalf("feed under credit failed: %v", err)
	}
	ps.release()
	if got := putStreamBufLeases.Load(); got != base {
		t.Fatalf("PUTSTREAM buffer leases = %d after the stream, want %d", got, base)
	}
}
