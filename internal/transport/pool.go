package transport

import "sync"

// Scratch-buffer pool for PUTSTREAM request headers. A stream's body
// is assembled as small header chunks that reference the caller's
// block buffers (vectored writes), so the only per-stream allocations
// would be those headers — pooling them makes the steady-state cost
// of a stream approach zero allocations.
var scratchPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// getScratch returns an empty pooled scratch buffer.
func getScratch() *[]byte {
	b := scratchPool.Get().(*[]byte)
	*b = (*b)[:0]
	return b
}

// putScratch returns a scratch buffer to the pool. Oversized buffers
// are dropped so the pool's steady-state footprint stays bounded.
func putScratch(b *[]byte) {
	if cap(*b) > 1<<20 {
		return
	}
	scratchPool.Put(b)
}

// growScratch pre-sizes scratch so subsequent appends never relocate
// the backing array out from under chunks that already reference it.
func growScratch(scratch *[]byte, need int) {
	if cap(*scratch) < need {
		*scratch = make([]byte, 0, need)
	}
}
