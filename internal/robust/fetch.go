package robust

import (
	"context"
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metadata"
)

// latencyTracker keeps a bounded reservoir of completed share-fetch
// latencies and estimates their p99, which is the hedge trigger
// delay: hedge only the requests that are slower than ~99% of their
// peers, so the extra load stays ~1% while the tail collapses.
type latencyTracker struct {
	mu      sync.Mutex
	samples []time.Duration
	next    int
	full    bool
}

const latencyTrackerCap = 256

func (t *latencyTracker) add(d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.samples) < latencyTrackerCap {
		t.samples = append(t.samples, d)
		return
	}
	t.samples[t.next] = d
	t.next = (t.next + 1) % latencyTrackerCap
	t.full = true
}

// p99 returns the 99th-percentile estimate, or 0 with no samples.
func (t *latencyTracker) p99() time.Duration {
	t.mu.Lock()
	cp := append([]time.Duration(nil), t.samples...)
	t.mu.Unlock()
	if len(cp) == 0 {
		return 0
	}
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	idx := len(cp) * 99 / 100
	if idx >= len(cp) {
		idx = len(cp) - 1
	}
	return cp[idx]
}

// Hedge delay bounds: below 1ms a hedge is pure duplicated load;
// above 2s it no longer masks anything a human would call latency.
// Before any sample lands, 30ms is the prior.
const (
	hedgeDelayMin     = time.Millisecond
	hedgeDelayMax     = 2 * time.Second
	hedgeDelayInitial = 30 * time.Millisecond
)

// fetcher executes one read access's share fetches: CRC verification
// with reject-and-refetch, optional hedging, latency tracking, and
// the per-access recovery counters that end up in ReadStats.
type fetcher struct {
	c       *Client
	name    string
	sealed  bool
	hedge   bool
	delay   time.Duration // fixed hedge delay; 0 = adaptive
	tracker latencyTracker
	holders map[int][]string // index -> holder addresses (usually one)

	corrupt   atomic.Int64
	hedges    atomic.Int64
	hedgeWins atomic.Int64

	// Lifecycle states are loaded lazily on the first hedge: the
	// fault-free read path never pays the registry round trip.
	statesOnce sync.Once
	states     map[string]metadata.ServerState
}

func newFetcher(c *Client, name string, sealed bool, placement map[string][]int) *fetcher {
	f := &fetcher{
		c:      c,
		name:   name,
		sealed: sealed,
		hedge:  c.opts.HedgeReads,
		delay:  c.opts.HedgeDelay,
	}
	if f.hedge {
		f.holders = make(map[int][]string)
		for addr, indices := range placement {
			for _, i := range indices {
				f.holders[i] = append(f.holders[i], addr)
			}
		}
	}
	return f
}

// hedgeDelay returns the current trigger delay.
func (f *fetcher) hedgeDelay() time.Duration {
	if f.delay > 0 {
		return f.delay
	}
	d := f.tracker.p99()
	if d == 0 {
		return hedgeDelayInitial
	}
	if d < hedgeDelayMin {
		d = hedgeDelayMin
	}
	if d > hedgeDelayMax {
		d = hedgeDelayMax
	}
	return d
}

// verify opens a fetched share's CRC envelope, refetching it once
// from the same holder on a mismatch: transit corruption is usually
// transient, disk corruption is not — one retry tells them apart
// without letting a rotten server stall the read.
func (f *fetcher) verify(ctx context.Context, src backend, idx int, payload []byte) ([]byte, error) {
	if !f.sealed {
		return payload, nil
	}
	data, err := openShare(payload)
	if err == nil {
		return data, nil
	}
	f.corrupt.Add(1)
	f.c.m.readCorruptShares.Inc()
	if cerr := ctx.Err(); cerr != nil {
		return nil, errors.Join(err, cerr)
	}
	payload, gerr := src.Get(ctx, f.name, idx)
	if gerr != nil {
		return nil, errors.Join(err, gerr)
	}
	data, err = openShare(payload)
	if err != nil {
		f.corrupt.Add(1)
		f.c.m.readCorruptShares.Inc()
		return nil, err
	}
	return data, nil
}

// serverStates returns the registry's lifecycle states, fetched once
// per access on first use (hedge decisions only — never the fault-free
// path).
func (f *fetcher) serverStates() map[string]metadata.ServerState {
	f.statesOnce.Do(func() {
		srvs := f.c.meta.Servers()
		f.states = make(map[string]metadata.ServerState, len(srvs))
		for _, s := range srvs {
			f.states[s.Addr] = s.State.Normalize()
		}
	})
	return f.states
}

// altStore picks a different, non-evicted holder of idx when the
// placement has one — preferring Active holders, since a Draining
// server is being evacuated and a Removed one is on its way out of
// the placement entirely; otherwise the hedge goes back to the same
// holder on fresh streams, which dodges per-stream stalls.
func (f *fetcher) altStore(primaryAddr string, idx int, primary backend) (string, backend) {
	states := f.serverStates()
	var fallbackAddr string
	var fallback backend
	found := false
	for _, addr := range f.holders[idx] {
		if addr == primaryAddr || f.c.excluded(addr) {
			continue
		}
		b, ok := f.c.backend(addr)
		if !ok {
			continue
		}
		if states[addr] == "" || states[addr] == metadata.ServerActive {
			return addr, b
		}
		if !found {
			fallbackAddr, fallback, found = addr, b, true
		}
	}
	if found {
		return fallbackAddr, fallback
	}
	return primaryAddr, primary
}
