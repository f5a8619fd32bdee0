package robust

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// windowFetcher is one read worker's window fetch: it walks the
// worker's share of a holder's blocks one window (one GetStream call)
// at a time, and its per-window state is reused across windows — a
// fetch is finished, hedge and primary joined, before the next starts.
type windowFetcher struct {
	f       *fetcher
	ctx     context.Context
	addr    string
	b       backend
	deliver func(int, []byte)
	// fromPrimary is the primary GetStream's delivery callback, built
	// once per worker.
	fromPrimary func(idx int, payload []byte, err error)

	mu      sync.Mutex
	indices []int
	done    []bool  // per position: a copy was delivered
	errs    []error // per position: the primary holder's failure
}

func (f *fetcher) newWindowFetcher(ctx context.Context, addr string, b backend, deliver func(int, []byte)) *windowFetcher {
	w := &windowFetcher{f: f, ctx: ctx, addr: addr, b: b, deliver: deliver,
		done: make([]bool, 0, batchBlocks), errs: make([]error, 0, batchBlocks)}
	w.fromPrimary = func(idx int, payload []byte, err error) { w.accept(w.b, true, idx, payload, err) }
	return w
}

// accept verifies one share fetched from src and hands it over,
// reporting whether it was the first copy. Duplicates (a hedge winner
// racing a late stream) are dropped here so downstream accounting
// stays exact even though the decoder would also tolerate them. Only
// the primary holder's failures are recorded; the hedge reports its
// own outcome.
func (w *windowFetcher) accept(src backend, primary bool, idx int, payload []byte, err error) bool {
	if err == nil {
		payload, err = w.f.verify(w.ctx, src, idx, payload)
	}
	i := -1
	for j, x := range w.indices { // windows are small
		if x == idx {
			i = j
			break
		}
	}
	w.mu.Lock()
	if i < 0 || w.done[i] {
		w.mu.Unlock()
		return false
	}
	if err != nil {
		if primary {
			w.errs[i] = err
		}
		w.mu.Unlock()
		return false
	}
	w.done[i] = true
	w.errs[i] = nil
	w.mu.Unlock()
	w.deliver(idx, payload)
	return true
}

// fetch retrieves one window of shares through the holder's
// GetStream: every index is fetched concurrently, each verified share
// is delivered the moment it arrives (no window barrier between the
// wire and the decoder), and when the p99-ish hedge trigger fires the
// shares still outstanding are promoted to an alternate holder's
// GetStream — the first copy of each share wins. Returns how many of
// the window's shares were not delivered; zero when the read was
// canceled, since a canceled fetch says nothing about the holder.
func (w *windowFetcher) fetch(indices []int) int {
	f, ctx := w.f, w.ctx
	start := time.Now()
	w.mu.Lock()
	w.indices = indices
	w.done = append(w.done[:0], make([]bool, len(indices))...)
	w.errs = append(w.errs[:0], make([]error, len(indices))...)
	w.mu.Unlock()
	var perr error
	if !f.hedge {
		perr = w.b.stream.GetStream(ctx, f.name, indices, w.fromPrimary)
	} else {
		pctx, pcancel := context.WithCancel(ctx)
		defer pcancel()
		primaryDone := make(chan error, 1)
		go func() { primaryDone <- w.b.stream.GetStream(pctx, f.name, indices, w.fromPrimary) }()
		timer := time.NewTimer(f.hedgeDelay())
		defer timer.Stop()
		select {
		case perr = <-primaryDone:
		case <-ctx.Done():
			pcancel()
			perr = <-primaryDone
		case <-timer.C:
			if w.hedge() {
				pcancel() // the stragglers are covered; stop their streams
			}
			perr = <-primaryDone
		}
	}

	// One aggregated health outcome per window: cancellations are no
	// signal about the holder.
	w.mu.Lock()
	failed := 0
	for i, done := range w.done {
		if done {
			continue
		}
		failed++
		switch {
		case w.errs[i] != nil:
		case perr != nil:
			w.errs[i] = perr
		default:
			w.errs[i] = errors.New("robust: share not delivered")
		}
	}
	f.c.reportOutcome(w.addr, f.c.batchOutcome(w.errs))
	w.mu.Unlock()
	if ctx.Err() != nil {
		return 0
	}
	if failed == 0 {
		// The tracker learns whole-window times, keeping the hedge delay
		// calibrated to what it races against.
		f.tracker.add(time.Since(start))
	}
	return failed
}

// hedge promotes the window's undelivered shares to an alternate
// holder (or fresh streams to the same one) once the primary is slow,
// and reports whether the hedge covered every share.
func (w *windowFetcher) hedge() (allDone bool) {
	f := w.f
	w.mu.Lock()
	remaining := make([]int, 0, len(w.indices))
	for i, idx := range w.indices {
		if !w.done[i] {
			remaining = append(remaining, idx)
		}
	}
	w.mu.Unlock()
	if len(remaining) == 0 || w.ctx.Err() != nil {
		return false
	}
	f.hedges.Add(1)
	f.c.m.readHedges.Inc()
	haddr, hb := f.altStore(w.addr, remaining[0], w.b)
	var won atomic.Bool
	var hmu sync.Mutex
	var herrs []error
	herr := hb.stream.GetStream(w.ctx, f.name, remaining, func(idx int, payload []byte, err error) {
		if w.accept(hb, false, idx, payload, err) {
			won.Store(true)
		}
		hmu.Lock()
		herrs = append(herrs, err)
		hmu.Unlock()
	})
	if won.Load() {
		f.hedgeWins.Add(1)
		f.c.m.readHedgeWins.Inc()
	} else {
		f.c.m.readHedgeLosses.Inc()
	}
	if herr == nil {
		herr = f.c.batchOutcome(herrs)
	}
	f.c.reportOutcome(haddr, herr)
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, done := range w.done {
		if !done {
			return false
		}
	}
	return true
}
