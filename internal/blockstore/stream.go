package blockstore

import (
	"context"
	"sync"
)

// Streamer is the streaming shape of the data path: many blocks per
// call, each reported the moment it lands. transport.Client
// implements it over the wire (PUTSTREAM and concurrent GET streams);
// StreamOf gives any other Store the same shape, so the robust client
// drives every backend through one interface.
type Streamer interface {
	// PutStream stores the entries and calls acked(i, err) exactly
	// once per entry, in order, as each one lands. A non-nil return
	// means acked was never called and no entry is known stored. Entry
	// data is not retained after PutStream returns. acked must not
	// block or call back into the store.
	PutStream(ctx context.Context, segment string, puts []BatchPut, acked func(i int, err error)) error
	// GetStream fetches the indices concurrently and calls deliver
	// once per index as each fetch completes, in any order and from
	// any goroutine. A non-nil return means deliver was never called.
	GetStream(ctx context.Context, segment string, indices []int, deliver func(index int, data []byte, err error)) error
}

// StreamOf returns s itself when it already streams, otherwise an
// adapter over its single-block methods: PutStream runs one Put per
// entry and acks it, GetStream fans out bounded concurrent Gets.
func StreamOf(s Store) Streamer {
	if st, ok := s.(Streamer); ok {
		return st
	}
	return storeStreamer{s}
}

// storeStreamer adapts a plain Store to Streamer.
type storeStreamer struct{ s Store }

// PutStream stores the entries one Put at a time and acks each as it
// returns; entries after a cancellation fail with the context error
// without reaching the store.
func (a storeStreamer) PutStream(ctx context.Context, segment string, puts []BatchPut, acked func(i int, err error)) error {
	for i, p := range puts {
		if err := ctx.Err(); err != nil {
			acked(i, err)
			continue
		}
		acked(i, a.s.Put(ctx, segment, p.Index, p.Data))
	}
	return nil
}

// GetStream implements Streamer with FanOutGet.
func (a storeStreamer) GetStream(ctx context.Context, segment string, indices []int, deliver func(index int, data []byte, err error)) error {
	FanOutGet(ctx, a.s, segment, indices, deliver)
	return nil
}

// Getter is the read slice of Store.
type Getter interface {
	Get(ctx context.Context, segment string, index int) ([]byte, error)
}

// fanOutParallel bounds the Gets FanOutGet keeps in flight: half a
// mux connection's default stream limit, so one window never starves
// a connection's other users.
const fanOutParallel = 32

// FanOutGet runs one Get per index, at most fanOutParallel at a time,
// and delivers each result the moment it completes. Indices not yet
// started when ctx ends are delivered with the context error. It
// returns after every index was delivered.
func FanOutGet(ctx context.Context, g Getter, segment string, indices []int, deliver func(index int, data []byte, err error)) {
	var wg sync.WaitGroup
	sem := make(chan struct{}, fanOutParallel)
	for _, idx := range indices {
		if err := ctx.Err(); err != nil {
			deliver(idx, nil, err)
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(idx int) {
			defer wg.Done()
			defer func() { <-sem }()
			data, err := g.Get(ctx, segment, idx)
			deliver(idx, data, err)
		}(idx)
	}
	wg.Wait()
}
