package ltcode

import "encoding/binary"

// xorWords sets dst[i] ^= src[i] with a word-at-a-time (uint64),
// 8×-unrolled main loop: 64 bytes per iteration, so the bound checks
// and loop overhead amortize across eight independent XORs the CPU
// can retire in parallel. The LT peeling decoder is little more than
// this loop applied once per edge of the coding graph, which makes it
// the decode-bandwidth ceiling once I/O is pipelined (BENCH_7.json).
// A word loop then a byte loop handle the tail safely for any length
// or alignment. dst and src must have equal length and must not alias
// unless identical.
func xorWords(src, dst []byte) {
	if len(src) != len(dst) {
		panic("ltcode: xorWords length mismatch")
	}
	n := len(dst)
	i := 0
	for ; i+64 <= n; i += 64 {
		// Full-size re-slices keep every load/store's bounds check
		// trivially eliminable.
		d := dst[i : i+64 : i+64]
		s := src[i : i+64 : i+64]
		binary.LittleEndian.PutUint64(d[0:8], binary.LittleEndian.Uint64(d[0:8])^binary.LittleEndian.Uint64(s[0:8]))
		binary.LittleEndian.PutUint64(d[8:16], binary.LittleEndian.Uint64(d[8:16])^binary.LittleEndian.Uint64(s[8:16]))
		binary.LittleEndian.PutUint64(d[16:24], binary.LittleEndian.Uint64(d[16:24])^binary.LittleEndian.Uint64(s[16:24]))
		binary.LittleEndian.PutUint64(d[24:32], binary.LittleEndian.Uint64(d[24:32])^binary.LittleEndian.Uint64(s[24:32]))
		binary.LittleEndian.PutUint64(d[32:40], binary.LittleEndian.Uint64(d[32:40])^binary.LittleEndian.Uint64(s[32:40]))
		binary.LittleEndian.PutUint64(d[40:48], binary.LittleEndian.Uint64(d[40:48])^binary.LittleEndian.Uint64(s[40:48]))
		binary.LittleEndian.PutUint64(d[48:56], binary.LittleEndian.Uint64(d[48:56])^binary.LittleEndian.Uint64(s[48:56]))
		binary.LittleEndian.PutUint64(d[56:64], binary.LittleEndian.Uint64(d[56:64])^binary.LittleEndian.Uint64(s[56:64]))
	}
	for ; i+8 <= n; i += 8 {
		binary.LittleEndian.PutUint64(dst[i:i+8], binary.LittleEndian.Uint64(dst[i:i+8])^binary.LittleEndian.Uint64(src[i:i+8]))
	}
	for ; i < n; i++ {
		dst[i] ^= src[i]
	}
}

// xorInto sets dst[i] = a[i] ^ b[i] — the first XOR of a block fused
// with the copy that would otherwise seed dst, so building a block
// from d sources takes d-1 passes over memory instead of d. Same
// kernel shape as xorWords; all three slices must have equal length,
// and dst must not partially overlap a or b.
func xorInto(dst, a, b []byte) {
	if len(a) != len(dst) || len(b) != len(dst) {
		panic("ltcode: xorInto length mismatch")
	}
	n := len(dst)
	i := 0
	for ; i+64 <= n; i += 64 {
		d := dst[i : i+64 : i+64]
		x := a[i : i+64 : i+64]
		y := b[i : i+64 : i+64]
		binary.LittleEndian.PutUint64(d[0:8], binary.LittleEndian.Uint64(x[0:8])^binary.LittleEndian.Uint64(y[0:8]))
		binary.LittleEndian.PutUint64(d[8:16], binary.LittleEndian.Uint64(x[8:16])^binary.LittleEndian.Uint64(y[8:16]))
		binary.LittleEndian.PutUint64(d[16:24], binary.LittleEndian.Uint64(x[16:24])^binary.LittleEndian.Uint64(y[16:24]))
		binary.LittleEndian.PutUint64(d[24:32], binary.LittleEndian.Uint64(x[24:32])^binary.LittleEndian.Uint64(y[24:32]))
		binary.LittleEndian.PutUint64(d[32:40], binary.LittleEndian.Uint64(x[32:40])^binary.LittleEndian.Uint64(y[32:40]))
		binary.LittleEndian.PutUint64(d[40:48], binary.LittleEndian.Uint64(x[40:48])^binary.LittleEndian.Uint64(y[40:48]))
		binary.LittleEndian.PutUint64(d[48:56], binary.LittleEndian.Uint64(x[48:56])^binary.LittleEndian.Uint64(y[48:56]))
		binary.LittleEndian.PutUint64(d[56:64], binary.LittleEndian.Uint64(x[56:64])^binary.LittleEndian.Uint64(y[56:64]))
	}
	for ; i+8 <= n; i += 8 {
		binary.LittleEndian.PutUint64(dst[i:i+8], binary.LittleEndian.Uint64(a[i:i+8])^binary.LittleEndian.Uint64(b[i:i+8]))
	}
	for ; i < n; i++ {
		dst[i] = a[i] ^ b[i]
	}
}
