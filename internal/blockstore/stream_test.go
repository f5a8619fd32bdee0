package blockstore

import (
	"context"
	"errors"
	"sync"
	"testing"
)

// Tests for the Streamer shape: many blocks per call with a result per
// entry — MemStore's own, and the adapter StreamOf gives other stores.

// plainStore hides MemStore's streaming methods, standing in for a
// backend with single-block methods only.
type plainStore struct{ Store }

// putAll runs a PutStream and collects its acks, which must come once
// per entry, in order; a non-nil return fails every entry.
func putAll(t *testing.T, st Streamer, ctx context.Context, puts []BatchPut) []error {
	t.Helper()
	errs := make([]error, len(puts))
	next := 0
	err := st.PutStream(ctx, "seg", puts, func(i int, err error) {
		if i != next {
			t.Errorf("ack for entry %d, want %d", i, next)
		}
		next++
		errs[i] = err
	})
	if err != nil && next == 0 {
		for i := range errs {
			errs[i] = err
		}
	} else if err != nil || next != len(puts) {
		t.Errorf("PutStream = %v after %d of %d acks", err, next, len(puts))
	}
	return errs
}

// getAll runs a GetStream and collects one delivery per index by
// position; a non-nil return fails every index.
func getAll(t *testing.T, st Streamer, ctx context.Context, indices []int) ([][]byte, []error) {
	t.Helper()
	datas := make([][]byte, len(indices))
	errs := make([]error, len(indices))
	seen := make([]int, len(indices))
	var mu sync.Mutex
	err := st.GetStream(ctx, "seg", indices, func(idx int, data []byte, err error) {
		mu.Lock()
		defer mu.Unlock()
		for i, x := range indices {
			if x == idx && seen[i] == 0 {
				seen[i]++
				datas[i], errs[i] = data, err
				return
			}
		}
		t.Errorf("unexpected delivery of index %d", idx)
	})
	for i := range indices {
		switch {
		case err != nil:
			errs[i] = err
		case seen[i] != 1:
			t.Errorf("index %d delivered %d times", indices[i], seen[i])
		}
	}
	return datas, errs
}

// stacks are the store stacks the stream tests run over: MemStore's
// native stream, and the adapter over a plain store, each bare and
// under the checksum layer.
func stacks() map[string]Store {
	return map[string]Store{
		"mem":            NewMemStore(),
		"plain":          plainStore{NewMemStore()},
		"checksum-mem":   WithChecksums(NewMemStore()),
		"checksum-plain": WithChecksums(plainStore{NewMemStore()}),
	}
}

// TestBatchRoundTrip puts and gets a batch of blocks through the
// stream shape of every store stack.
func TestBatchRoundTrip(t *testing.T) {
	for name, store := range stacks() {
		t.Run(name, func(t *testing.T) {
			st, ctx := StreamOf(store), context.Background()
			// StreamOf keeps a native Streamer and adapts the rest.
			if _, adapted := st.(storeStreamer); adapted != (name != "mem") {
				t.Fatalf("StreamOf(%T) = %T", store, st)
			}
			puts := []BatchPut{{Index: 0, Data: []byte("alpha")}, {Index: 3}, {Index: 7, Data: []byte("gamma")}}
			for i, err := range putAll(t, st, ctx, puts) {
				if err != nil {
					t.Fatalf("PutStream[%d]: %v", i, err)
				}
			}
			datas, errs := getAll(t, st, ctx, []int{0, 3, 7, 9})
			for i, p := range puts {
				if errs[i] != nil || string(datas[i]) != string(p.Data) {
					t.Fatalf("GetStream[%d] = %q, %v; want %q", i, datas[i], errs[i], p.Data)
				}
			}
			if !errors.Is(errs[3], ErrNotFound) {
				t.Fatalf("GetStream[missing] = %v, want ErrNotFound", errs[3])
			}
		})
	}
}

// TestBatchPerEntryErrors checks that one bad entry never fails its
// batch: invalid indices are rejected per entry while the rest land.
func TestBatchPerEntryErrors(t *testing.T) {
	for name, store := range stacks() {
		t.Run(name, func(t *testing.T) {
			st, ctx := StreamOf(store), context.Background()
			errs := putAll(t, st, ctx, []BatchPut{{Index: -1, Data: []byte("bad")}, {Index: 2, Data: []byte("good")}})
			if errs[0] == nil || errs[1] != nil {
				t.Fatalf("PutStream per-entry errors = %v", errs)
			}
			datas, gerrs := getAll(t, st, ctx, []int{-1, 2})
			if gerrs[0] == nil || gerrs[1] != nil || string(datas[1]) != "good" {
				t.Fatalf("GetStream per-entry results = %q, %v", datas, gerrs)
			}
		})
	}
}

// TestPutBatchDoesNotRetain pins the pooled-buffer contract: the
// store must copy entry data before acking it, so a caller recycling
// its buffers cannot corrupt stored blocks.
func TestPutBatchDoesNotRetain(t *testing.T) {
	for name, store := range map[string]Store{
		"mem":      NewMemStore(),
		"plain":    plainStore{NewMemStore()},
		"checksum": WithChecksums(NewMemStore()),
	} {
		t.Run(name, func(t *testing.T) {
			st, ctx := StreamOf(store), context.Background()
			buf := []byte("original")
			if errs := putAll(t, st, ctx, []BatchPut{{Index: 0, Data: buf}}); errs[0] != nil {
				t.Fatal(errs[0])
			}
			copy(buf, "clobber!")
			if datas, errs := getAll(t, st, ctx, []int{0}); errs[0] != nil || string(datas[0]) != "original" {
				t.Fatalf("stored block aliased caller buffer: %q, %v", datas[0], errs[0])
			}
		})
	}
}

// TestChecksumGetBatchFlagsCorruption verifies per-entry integrity: a
// corrupted block reports ErrCorrupt while its batchmates decode.
func TestChecksumGetBatchFlagsCorruption(t *testing.T) {
	inner := NewMemStore()
	st, ctx := StreamOf(WithChecksums(inner)), context.Background()
	if errs := putAll(t, st, ctx, []BatchPut{{Index: 0, Data: []byte("keep")}, {Index: 1, Data: []byte("smash")}}); errs[0] != nil || errs[1] != nil {
		t.Fatal(errs)
	}
	// Flip a payload bit behind the wrapper's back.
	raw, err := inner.Get(ctx, "seg", 1)
	if err != nil {
		t.Fatal(err)
	}
	tampered := append([]byte(nil), raw...)
	tampered[len(tampered)-1] ^= 0xFF
	if err := inner.Put(ctx, "seg", 1, tampered); err != nil {
		t.Fatal(err)
	}
	datas, errs := getAll(t, st, ctx, []int{0, 1})
	if errs[0] != nil || string(datas[0]) != "keep" {
		t.Fatalf("intact batchmate failed: %q, %v", datas[0], errs[0])
	}
	if !errors.Is(errs[1], ErrCorrupt) || datas[1] != nil {
		t.Fatalf("tampered entry = %q, %v; want ErrCorrupt and no data", datas[1], errs[1])
	}
}

// TestBatchClosedAndCanceled checks whole-batch failure modes: a
// closed store and a canceled context fail every entry, and a
// canceled batch never reaches the store.
func TestBatchClosedAndCanceled(t *testing.T) {
	for name, wrap := range map[string]func(*MemStore) Store{
		"mem":   func(m *MemStore) Store { return m },
		"plain": func(m *MemStore) Store { return plainStore{m} },
	} {
		t.Run(name, func(t *testing.T) {
			mem := NewMemStore()
			st := StreamOf(wrap(mem))
			canceled, cancel := context.WithCancel(context.Background())
			cancel()
			for _, err := range putAll(t, st, canceled, []BatchPut{{Index: 0, Data: []byte("x")}, {Index: 1}}) {
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("canceled PutStream = %v", err)
				}
			}
			if _, errs := getAll(t, st, canceled, []int{0, 1}); !errors.Is(errs[0], context.Canceled) || !errors.Is(errs[1], context.Canceled) {
				t.Fatalf("canceled GetStream = %v", errs)
			}
			if mem.Bytes() != 0 {
				t.Fatal("canceled PutStream stored data")
			}
			mem.Close()
			ctx := context.Background()
			if errs := putAll(t, st, ctx, []BatchPut{{Index: 0, Data: []byte("x")}}); !errors.Is(errs[0], ErrClosed) {
				t.Fatalf("closed PutStream = %v, want ErrClosed", errs[0])
			}
			if _, errs := getAll(t, st, ctx, []int{0}); !errors.Is(errs[0], ErrClosed) {
				t.Fatalf("closed GetStream = %v, want ErrClosed", errs[0])
			}
		})
	}
}
