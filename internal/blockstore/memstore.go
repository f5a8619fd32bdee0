package blockstore

import (
	"context"
	"sort"
	"sync"
)

// MemStore is an in-memory Store. The zero value is not usable; call
// NewMemStore.
type MemStore struct {
	mu       sync.RWMutex
	segments map[string]map[int][]byte
	closed   bool
	bytes    int64
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{segments: make(map[string]map[int][]byte)}
}

// Put stores a copy of data.
func (s *MemStore) Put(ctx context.Context, segment string, index int, data []byte) error {
	if err := validate(segment, index); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	cp := append([]byte(nil), data...)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	seg := s.segments[segment]
	if seg == nil {
		seg = make(map[int][]byte)
		s.segments[segment] = seg
	}
	if old, ok := seg[index]; ok {
		s.bytes -= int64(len(old))
	}
	seg[index] = cp
	s.bytes += int64(len(cp))
	return nil
}

// Get returns the stored block (the caller must not mutate it).
func (s *MemStore) Get(ctx context.Context, segment string, index int) ([]byte, error) {
	if err := validate(segment, index); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	if b, ok := s.segments[segment][index]; ok {
		return b, nil
	}
	return nil, ErrNotFound
}

// Delete removes a block.
func (s *MemStore) Delete(ctx context.Context, segment string, index int) error {
	if err := validate(segment, index); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if b, ok := s.segments[segment][index]; ok {
		s.bytes -= int64(len(b))
		delete(s.segments[segment], index)
		if len(s.segments[segment]) == 0 {
			delete(s.segments, segment)
		}
	}
	return nil
}

// List returns the stored indices of a segment in ascending order.
func (s *MemStore) List(ctx context.Context, segment string) ([]int, error) {
	if segment == "" {
		return nil, validate(segment, 0)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	seg := s.segments[segment]
	out := make([]int, 0, len(seg))
	for idx := range seg {
		out = append(out, idx)
	}
	sort.Ints(out)
	return out, nil
}

// Bytes returns the total stored payload size.
func (s *MemStore) Bytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.bytes
}

// Close marks the store closed.
func (s *MemStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.segments = nil
	return nil
}

// MemStore streams natively: a run crosses the lock once and its
// entries share one backing allocation, so the in-process data path
// costs about one allocation per run instead of one per block.
var _ Streamer = (*MemStore)(nil)

// PutStream implements Streamer: every valid entry is copied into one
// backing buffer and stored under a single lock crossing, then all
// entries are acked in order — an invalid index fails only its own
// entry. A canceled context or a closed store fails the whole run
// before anything is stored (no acks).
func (s *MemStore) PutStream(ctx context.Context, segment string, puts []BatchPut, acked func(i int, err error)) error {
	total := 0
	for _, p := range puts {
		if validate(segment, p.Index) == nil {
			total += len(p.Data)
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	backing := make([]byte, 0, total)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	seg := s.segments[segment]
	if seg == nil {
		seg = make(map[int][]byte, len(puts))
		s.segments[segment] = seg
	}
	for _, p := range puts {
		if validate(segment, p.Index) != nil {
			continue
		}
		off := len(backing)
		backing = append(backing, p.Data...)
		cp := backing[off:len(backing):len(backing)]
		if old, ok := seg[p.Index]; ok {
			s.bytes -= int64(len(old))
		}
		seg[p.Index] = cp
		s.bytes += int64(len(cp))
	}
	s.mu.Unlock()
	for i, p := range puts {
		acked(i, validate(segment, p.Index))
	}
	return nil
}

// GetStream implements Streamer with one lock crossing; blocks are
// delivered after the lock is released, in request order.
func (s *MemStore) GetStream(ctx context.Context, segment string, indices []int, deliver func(index int, data []byte, err error)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	datas := make([][]byte, len(indices))
	errs := make([]error, len(indices))
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return ErrClosed
	}
	seg := s.segments[segment]
	for i, idx := range indices {
		if errs[i] = validate(segment, idx); errs[i] != nil {
			continue
		}
		if b, ok := seg[idx]; ok {
			datas[i] = b
		} else {
			errs[i] = ErrNotFound
		}
	}
	s.mu.RUnlock()
	for i, idx := range indices {
		deliver(idx, datas[i], errs[i])
	}
	return nil
}
