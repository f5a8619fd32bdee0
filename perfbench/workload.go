package main

import (
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"time"

	"repro/internal/blockstore"
)

// workload is one traffic mix the benchmark drives through the public
// robust.Client API. Every field is fixed here; only the seed varies
// between runs.
type workload struct {
	name string

	objBytes   int64 // user bytes per object
	blockBytes int64 // Options.BlockBytes
	patchBytes int64 // bytes per Update patch

	liveKeys int
	// zipfS > 1 draws keys Zipf-skewed (open loop); zero partitions the
	// keys uniformly among the closed-loop workers.
	zipfS float64

	readPct, writePct int // the rest are updates
	workers           int
	// rate > 0 makes the workload open-loop: Poisson arrivals at rate
	// ops/s, dispatched to at most workers goroutines and timed from
	// each request's due time.
	rate float64
	// readTailPct and writeTailPct are the fixed percentiles reported
	// as read_tail_ms and write_tail_ms: the highest ones that leave at
	// least ten samples beyond them at the op counts recorded in
	// STEADINESS.md.
	readTailPct, writeTailPct float64
	// think is a closed-loop worker's pause between ops. The harness
	// runs every server, the metadata group and the client in one
	// process; a short pause keeps a bulk op from holding both cores
	// while the metadata group's heartbeats are due.
	think time.Duration
	// preloadWorkers write the live keys in parallel during set-up.
	preloadWorkers int

	// disk serves each block server's blocks from a FileStore (fsync
	// per put) behind a SlowStore with the seeded fleet profile, instead
	// of a MemStore.
	disk bool
	// chunkBytes > 0 sets Options.ChunkBytes and writes through the
	// streaming WriteFrom path.
	chunkBytes int64
}

const (
	kib = 1 << 10
	mib = 1 << 20
)

// Each workload stresses some layers and bypasses others, so a change
// to one layer has a workload where it should show and one where it
// should not.
var workloads = []workload{
	// No disk and no straggler: LT encode/decode, CRC sealing, client
	// fan-out and mux wire/flow control do almost all the work, and
	// metadata is a small share of an op. Shows data-path CPU and wire
	// changes; bypasses storage and hedging changes. Four live keys fit
	// the client's 16-entry graph cache and keep the in-memory stores
	// near 270 MB. One worker runs one op at a time, so each latency is
	// the op's own. With two workers a write's first commit depended on
	// whether the other worker's op overlapped it: its middle half spread
	// over 32-73 ms in one run (24-32 ms with one worker), and its median
	// moved by a third between runs (STEADINESS.md).
	{
		name:     "bulk-mem",
		objBytes: 16 * mib, blockBytes: 256 * kib, patchBytes: 4 * kib,
		liveKeys: 4, readPct: 40, writePct: 40, workers: 1,
		think: 20 * time.Millisecond, readTailPct: 90, writeTailPct: 90,
		preloadWorkers: 2,
	},
	// The paper's heterogeneous-disk setting (sections 6.2.4-6.2.5):
	// FileStore servers with fsync per put behind SlowStores whose
	// bandwidths spread 40-180 MB/s, one of them stalling on a fifth of
	// its requests. Disk, fsync and the chunked WriteFrom pipeline
	// decide writes; stragglers, hedging and early cancellation decide
	// read tails. Shows storage, streaming-write and hedging changes,
	// which bulk-mem bypasses. Objects are 4 MiB, keys few and the think
	// time long, so the measured phase writes about 0.9 GB; run also
	// syncs the disk before each boot so one cluster's writeback does not
	// slow the next. It runs by name but is not in BENCHMARK.json: on the
	// shared two-core VM the benchmark was built on, its write p50 moved
	// 2.3x between runs with the host disk's load (STEADINESS.md), more
	// than the largest bound the gate allows.
	{
		name:     "bulk-disk-skew",
		objBytes: 4 * mib, blockBytes: 256 * kib, patchBytes: 4 * kib, chunkBytes: 2 * mib,
		liveKeys: 8, readPct: 70, writePct: 15, workers: 2,
		think: 150 * time.Millisecond, readTailPct: 95, writeTailPct: 80,
		preloadWorkers: 2, disk: true,
	},
	// Small objects under Poisson arrivals at a fixed offered rate: fixed
	// per-op costs dominate (metadata locks, lookups and consensus
	// commits, per-request round trips), encode/decode is tiny, and an
	// Update costs mostly its lock, lookup and commit. Shows metadata and
	// per-request changes; bypasses bulk data-path changes. The rate is
	// about a tenth of the two-worker closed-loop capacity, so queueing
	// does not amplify host noise: in six runs per rate made side by side
	// on a busy host, the slowest read p50 was 2.3 times the fastest at
	// 100 ops/s and 1.4 times at 60 ops/s, and on a quiet host 30 ops/s
	// was as steady as 60 with lower p50s (STEADINESS.md).
	{
		name:     "small-open",
		objBytes: 64 * kib, blockBytes: 16 * kib, patchBytes: 4 * kib,
		liveKeys: 512, zipfS: 1.1, readPct: 70, writePct: 15, workers: 2,
		rate: 30, readTailPct: 98.5, writeTailPct: 93, preloadWorkers: 4,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// opKind is the robust.Client call an op makes.
type opKind int

const (
	opRead opKind = iota
	opWrite
	opUpdate
)

func (k opKind) String() string {
	return [...]string{"read", "write", "update"}[k]
}

// op is one generated request. The program sees only these values
// and the pool bytes they point at.
type op struct {
	kind opKind
	key  int
	// src is the pool offset of a write's payload or an update's patch.
	src int64
	// off is an update's destination offset inside the object.
	off int64
	// due is an open-loop request's send time, relative to the start
	// of the measured phase.
	due time.Duration
}

// inputs are everything a run derives from its seed.
type inputs struct {
	w    workload
	seed int64
	pool []byte // payload and patch bytes; ops point into it
	// initial holds each key's preload pool offset.
	initial []int64
	// profiles are the block servers' SlowStore profiles (disk
	// workloads only).
	profiles []blockstore.SlowProfile
}

const numServers = 8

// newInputs derives the payload pool and the preload contents from
// the seed.
func newInputs(w workload, seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	poolLen := 2 * w.objBytes
	if poolLen < mib {
		poolLen = mib
	}
	in := &inputs{w: w, seed: seed, pool: make([]byte, poolLen)}
	fillRandom(in.pool, rng)
	in.initial = make([]int64, w.liveKeys)
	for k := range in.initial {
		in.initial[k] = in.payloadOffset(rng)
	}
	if w.disk {
		in.profiles = fleetProfiles(rng)
	}
	return in
}

// fleetProfiles deals a fixed heterogeneous fleet to the servers in a
// seeded order: bandwidths spread evenly over 40-180 MB/s, and one
// server that also stalls 40 ms on 20% of its requests. Every seed
// gets the same fleet, so runs differ only in which address is which.
func fleetProfiles(rng *rand.Rand) []blockstore.SlowProfile {
	out := make([]blockstore.SlowProfile, numServers)
	for i, j := range rng.Perm(numServers) {
		out[j] = blockstore.SlowProfile{Bandwidth: (40 + 140*float64(i)/float64(numServers-1)) * 1e6}
	}
	straggler := rng.Intn(numServers)
	out[straggler].StallRate, out[straggler].StallTime = 0.2, 40*time.Millisecond
	return out
}

// fillRandom fills b with bytes from rng, eight at a time.
func fillRandom(b []byte, rng *rand.Rand) {
	for i := 0; i+8 <= len(b); i += 8 {
		v := rng.Uint64()
		for j := 0; j < 8; j++ {
			b[i+j] = byte(v >> (8 * j))
		}
	}
}

// payloadOffset draws a 512-byte-aligned window of objBytes in the pool.
func (in *inputs) payloadOffset(rng *rand.Rand) int64 {
	return rng.Int63n((int64(len(in.pool))-in.w.objBytes)/512+1) * 512
}

// opStream is a deterministic, endless op sequence. Closed-loop
// workers each own one stream over their own keys; an open-loop run
// has a single stream that also carries arrival times.
type opStream struct {
	in   *inputs
	rng  *rand.Rand
	zipf *rand.Zipf
	keys []int // keys this stream may touch (closed loop)
	now  time.Duration
	deck []opKind // kinds left in the current deck
}

// deckSize is the number of ops over which a stream's mix is exact:
// kinds are dealt from shuffled decks holding the workload's
// percentages, so every run gets the same mix, not a binomial draw.
const deckSize = 20

// stream returns generator number id; the same (seed, id) always
// yields the same ops.
func (in *inputs) stream(id int) *opStream {
	s := &opStream{in: in, rng: rand.New(rand.NewSource(in.seed*1_000_003 + int64(id) + 1))}
	w := in.w
	if w.zipfS > 1 {
		s.zipf = rand.NewZipf(s.rng, w.zipfS, 1, uint64(w.liveKeys-1))
		return s
	}
	for k := id; k < w.liveKeys; k += w.workers {
		s.keys = append(s.keys, k)
	}
	return s
}

func (s *opStream) next() op {
	w := s.in.w
	var o op
	if s.zipf != nil {
		o.key = int(s.zipf.Uint64())
	} else {
		o.key = s.keys[s.rng.Intn(len(s.keys))]
	}
	if len(s.deck) == 0 {
		for i := 0; i < deckSize; i++ {
			k := opUpdate
			switch p := i * 100 / deckSize; {
			case p < w.readPct:
				k = opRead
			case p < w.readPct+w.writePct:
				k = opWrite
			}
			s.deck = append(s.deck, k)
		}
		s.rng.Shuffle(len(s.deck), func(i, j int) { s.deck[i], s.deck[j] = s.deck[j], s.deck[i] })
	}
	o.kind, s.deck = s.deck[0], s.deck[1:]
	switch o.kind {
	case opWrite:
		o.src = s.in.payloadOffset(s.rng)
	case opUpdate:
		o.src = s.rng.Int63n(int64(len(s.in.pool))-w.patchBytes+1) &^ 7
		o.off = s.rng.Int63n(w.objBytes-w.patchBytes+1) &^ 7
	}
	if w.rate > 0 {
		s.now += time.Duration(s.rng.ExpFloat64() / w.rate * float64(time.Second))
		o.due = s.now
	}
	return o
}

// patch is one applied update: pool[src:src+n] copied to off.
type patch struct{ off, src int64 }

// content rebuilds an object's expected bytes into dst.
func (in *inputs) content(dst []byte, base int64, patches []patch) []byte {
	dst = append(dst[:0], in.pool[base:base+in.w.objBytes]...)
	for _, p := range patches {
		copy(dst[p.off:], in.pool[p.src:p.src+in.w.patchBytes])
	}
	return dst
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// segName names a key's version; every write creates the next one.
func segName(key, version int) string { return fmt.Sprintf("k%04d.v%d", key, version) }

// percentile returns the p-th percentile (0..100) of sorted xs by
// nearest rank.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
