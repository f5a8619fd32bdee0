package replica

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/metadata"
	"repro/internal/obs"
)

// Node lifecycle errors.
var (
	// ErrClosed is returned by operations on a closed node.
	ErrClosed = errors.New("replica: node closed")
	// ErrLeadershipLost is returned to a proposer whose entry's fate
	// became unknown when this node lost leadership: the entry may
	// still commit under the new leader or may be overwritten. Callers
	// must treat the operation as unacknowledged.
	ErrLeadershipLost = errors.New("replica: leadership lost before commit (result unknown)")
	// ErrNoQuorum is returned when a read-index round cannot confirm
	// leadership with a majority. It is the metadata sentinel, so the
	// error keeps its kind across the metadata wire and failover
	// clients retry it.
	ErrNoQuorum = metadata.ErrNoQuorum
)

// Peer identifies one group member: a consensus (raft) address the
// nodes gossip over and a client address the metadata wire protocol
// listens on — the address leader hints carry and write proxying
// targets.
type Peer struct {
	ID         int
	RaftAddr   string
	ClientAddr string
}

// Config configures a replica node.
type Config struct {
	// ID is this node's member id (must be ≥ 1 and present in Peers).
	ID int
	// Peers is the full group membership, self included. A
	// single-entry group degenerates to a durable standalone server.
	Peers []Peer
	// Dir is the node's data directory (wal.log, state.json,
	// snapshot.bin). Created if missing.
	Dir string
	// ElectionTimeout is the base leader-silence span before a node
	// campaigns; the live timeout is re-randomized into
	// [base, 2·base) at every reset so split votes break themselves
	// (default 150ms).
	ElectionTimeout time.Duration
	// HeartbeatInterval spaces leader AppendEntries rounds (default
	// ElectionTimeout/4).
	HeartbeatInterval time.Duration
	// RPCTimeout bounds one peer round trip (default 1s).
	RPCTimeout time.Duration
	// CommitTimeout bounds a proposal's wait for majority commit and
	// a read's wait for its read index (default 5s).
	CommitTimeout time.Duration
	// SnapshotEvery triggers a snapshot + log compaction after this
	// many applied entries (default 1024).
	SnapshotEvery int
	// Obs, when non-nil, receives the meta_* metrics.
	Obs *obs.Registry
	// Dial overrides peer dialing; tests inject partitions here.
	Dial dialFunc
	// Logf, when non-nil, receives debug lines.
	Logf func(format string, args ...any)
}

// role is a node's consensus role.
type role int

const (
	follower role = iota
	candidate
	leader
)

// waiter is one proposal blocked on commit+apply of its entry.
type waiter struct {
	term uint64
	ch   chan error
}

type nodeMetrics struct {
	leaderChanges    *obs.Counter
	elections        *obs.Counter
	proposals        *obs.Counter
	proposalFailures *obs.Counter
	snapshots        *obs.Counter
	snapshotInstalls *obs.Counter
	readIndexes      *obs.Counter
	commitLatency    *obs.Histogram
	term             *obs.Gauge
	appliedIndex     *obs.Gauge
	isLeader         *obs.Gauge
}

func newNodeMetrics(r *obs.Registry) nodeMetrics {
	return nodeMetrics{
		leaderChanges:    r.Counter("meta_leader_changes_total"),
		elections:        r.Counter("meta_elections_total"),
		proposals:        r.Counter("meta_proposals_total"),
		proposalFailures: r.Counter("meta_proposal_failures_total"),
		snapshots:        r.Counter("meta_snapshots_total"),
		snapshotInstalls: r.Counter("meta_snapshot_installs_total"),
		readIndexes:      r.Counter("meta_read_index_total"),
		commitLatency:    r.Histogram("meta_commit_latency_seconds"),
		term:             r.Gauge("meta_term"),
		appliedIndex:     r.Gauge("meta_applied_index"),
		isLeader:         r.Gauge("meta_is_leader"),
	}
}

// Node is one member of a replicated metadata group. It implements
// metadata.API: writes are proposed to the consensus log and
// acknowledged only after majority commit and local apply; reads are
// served from the local state machine after a read-index check;
// locks are leader-local and redirect via NotLeaderError. Wrap a
// Node in metadata.NewNetworkServerFor to serve clients.
type Node struct {
	cfg   Config
	id    int
	self  Peer
	peers []Peer // excluding self
	svc   *metadata.Service
	m     nodeMetrics

	hsPath   string
	snapPath string

	mu          sync.Mutex
	closed      bool
	serving     bool
	wal         *wal
	role        role
	term        uint64
	votedFor    int
	leaderID    int
	log         []Entry // log[i].Index == snapIndex+1+i
	snapIndex   uint64
	snapTerm    uint64
	snapState   []byte // raw service snapshot at snapIndex, for installs
	commitIndex uint64
	applied     uint64
	sinceSnap   int
	lastContact time.Time
	timeout     time.Duration // current randomized election timeout
	nextIndex   map[int]uint64
	matchIndex  map[int]uint64
	waiters     map[uint64]waiter
	progress    chan struct{} // closed+replaced on commit/apply/role change
	rpcConns    map[net.Conn]struct{}

	ln        net.Listener
	clients   map[int]*peerClient
	stopc     chan struct{}
	applyKick chan struct{}
	peerKicks map[int]chan struct{}
	wg        sync.WaitGroup
}

// Open loads (or initializes) a node's durable state from cfg.Dir:
// snapshot, then the log tail, then the hard state. It does not
// start any network activity; call Serve with the consensus
// listener.
func Open(cfg Config) (*Node, error) {
	if cfg.ID < 1 {
		return nil, fmt.Errorf("replica: node id %d must be >= 1", cfg.ID)
	}
	if cfg.ElectionTimeout <= 0 {
		cfg.ElectionTimeout = 150 * time.Millisecond
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = cfg.ElectionTimeout / 4
	}
	if cfg.RPCTimeout <= 0 {
		cfg.RPCTimeout = time.Second
	}
	if cfg.CommitTimeout <= 0 {
		cfg.CommitTimeout = 5 * time.Second
	}
	if cfg.SnapshotEvery <= 0 {
		cfg.SnapshotEvery = 1024
	}
	var self Peer
	var peers []Peer
	seen := make(map[int]bool)
	for _, p := range cfg.Peers {
		if p.ID < 1 {
			return nil, fmt.Errorf("replica: peer id %d must be >= 1", p.ID)
		}
		if seen[p.ID] {
			return nil, fmt.Errorf("replica: duplicate peer id %d", p.ID)
		}
		seen[p.ID] = true
		if p.ID == cfg.ID {
			self = p
		} else {
			peers = append(peers, p)
		}
	}
	if self.ID == 0 {
		return nil, fmt.Errorf("replica: node id %d not in peer list", cfg.ID)
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("replica: creating data dir: %w", err)
	}

	n := &Node{
		cfg:        cfg,
		id:         cfg.ID,
		self:       self,
		peers:      peers,
		svc:        metadata.NewService(),
		m:          newNodeMetrics(cfg.Obs),
		hsPath:     filepath.Join(cfg.Dir, "state.json"),
		snapPath:   filepath.Join(cfg.Dir, "snapshot.bin"),
		leaderID:   0,
		nextIndex:  make(map[int]uint64),
		matchIndex: make(map[int]uint64),
		waiters:    make(map[uint64]waiter),
		progress:   make(chan struct{}),
		rpcConns:   make(map[net.Conn]struct{}),
		clients:    make(map[int]*peerClient),
		stopc:      make(chan struct{}),
		applyKick:  make(chan struct{}, 1),
		peerKicks:  make(map[int]chan struct{}),
	}

	snap, err := loadSnapshot(n.snapPath)
	if err != nil {
		return nil, err
	}
	if snap.LastIndex > 0 {
		if err := n.svc.Load(bytes.NewReader(snap.State)); err != nil {
			return nil, fmt.Errorf("replica: restoring snapshot state: %w", err)
		}
		n.snapIndex, n.snapTerm, n.snapState = snap.LastIndex, snap.LastTerm, snap.State
	}
	n.commitIndex, n.applied = n.snapIndex, n.snapIndex

	w, entries, err := openWAL(filepath.Join(cfg.Dir, "wal.log"))
	if err != nil {
		return nil, err
	}
	n.wal = w
	// Entries at or below the snapshot index were compacted logically
	// but may survive a crash between snapshot write and log rewrite.
	kept := entries[:0]
	for _, e := range entries {
		if e.Index > n.snapIndex {
			kept = append(kept, e)
		}
	}
	if err := validateSequence(n.snapIndex, kept); err != nil && len(kept) > 0 {
		// A gap between snapshot and log tail means the prefix was
		// acknowledged and lost — refuse to start on it.
		w.Close()
		return nil, fmt.Errorf("replica: log does not follow snapshot %d: %w", n.snapIndex, err)
	}
	n.log = append([]Entry(nil), kept...)

	hs, err := loadHardState(n.hsPath)
	if err != nil {
		w.Close()
		return nil, err
	}
	n.term, n.votedFor = hs.Term, hs.VotedFor
	n.m.term.Set(float64(n.term))
	n.m.appliedIndex.Set(float64(n.applied))

	n.lastContact = time.Now()
	n.timeout = n.randTimeout()
	for _, p := range peers {
		n.clients[p.ID] = newPeerClient(p.RaftAddr, cfg.Dial, cfg.RPCTimeout)
		n.peerKicks[p.ID] = make(chan struct{}, 1)
	}
	return n, nil
}

// Serve starts the node's consensus machinery on ln: the RPC accept
// loop, the election ticker, the apply loop, and one replication
// loop per peer. It returns immediately; Close stops everything.
func (n *Node) Serve(ln net.Listener) error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return ErrClosed
	}
	if n.serving {
		n.mu.Unlock()
		return errors.New("replica: already serving")
	}
	n.serving = true
	n.ln = ln
	n.mu.Unlock()
	n.spawn(func() { n.serveRPC(ln) })
	n.spawn(n.tickLoop)
	n.spawn(n.applyLoop)
	for _, p := range n.peers {
		peer := p
		n.spawn(func() { n.peerLoop(peer) })
	}
	return nil
}

// Close shuts the node down: stops loops, closes connections, fails
// outstanding proposals with ErrClosed, and closes the log.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	close(n.stopc)
	if n.ln != nil {
		n.ln.Close()
	}
	for c := range n.rpcConns {
		c.Close()
	}
	n.failWaitersLocked(ErrClosed)
	n.rotateProgressLocked()
	clients := n.clients
	n.mu.Unlock()
	for _, pc := range clients {
		pc.Close()
	}
	n.wg.Wait()
	n.mu.Lock()
	err := n.wal.Close()
	n.mu.Unlock()
	return err
}

// spawn runs f on a tracked goroutine joined by Close.
func (n *Node) spawn(f func()) {
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		f()
	}()
}

func (n *Node) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf("replica[%d]: "+format, append([]any{n.id}, args...)...)
	}
}

// randTimeout draws the next randomized election timeout in
// [base, 2·base).
func (n *Node) randTimeout() time.Duration {
	base := n.cfg.ElectionTimeout
	return base + time.Duration(rand.Int63n(int64(base)))
}

// quorum is the majority size of the full group.
func (n *Node) quorum() int {
	return (len(n.peers)+1)/2 + 1
}

// lastIndexLocked returns the index of the last log entry (or the
// snapshot frontier when the log is empty). Callers hold n.mu.
func (n *Node) lastIndexLocked() uint64 {
	return n.snapIndex + uint64(len(n.log))
}

// termAtLocked returns the term of the entry at idx, or 0 when idx
// predates the snapshot or exceeds the log. Callers hold n.mu.
func (n *Node) termAtLocked(idx uint64) uint64 {
	switch {
	case idx == n.snapIndex:
		return n.snapTerm
	case idx < n.snapIndex:
		return 0
	}
	off := idx - n.snapIndex - 1
	if off >= uint64(len(n.log)) {
		return 0
	}
	return n.log[off].Term
}

// entriesFromLocked copies log entries in [from, lastIndex],
// capped at maxAppendEntries. Callers hold n.mu.
func (n *Node) entriesFromLocked(from uint64) []Entry {
	if from <= n.snapIndex {
		return nil
	}
	off := from - n.snapIndex - 1
	if off >= uint64(len(n.log)) {
		return nil
	}
	tail := n.log[off:]
	if len(tail) > maxAppendEntries {
		tail = tail[:maxAppendEntries]
	}
	return append([]Entry(nil), tail...)
}

// maxAppendEntries bounds one replication batch.
const maxAppendEntries = 256

// rotateProgressLocked wakes every waiter parked on commit/apply/role
// progress. Callers hold n.mu.
func (n *Node) rotateProgressLocked() {
	close(n.progress)
	n.progress = make(chan struct{})
}

// failWaitersLocked resolves every outstanding proposal with err.
// Callers hold n.mu.
func (n *Node) failWaitersLocked(err error) {
	for idx, w := range n.waiters {
		w.ch <- err
		delete(n.waiters, idx)
	}
}

// kickPeersLocked nudges every replication loop. Callers hold n.mu.
func (n *Node) kickPeersLocked() {
	for _, ch := range n.peerKicks {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// kickApplyLocked nudges the apply loop. Callers hold n.mu.
func (n *Node) kickApplyLocked() {
	select {
	case n.applyKick <- struct{}{}:
	default:
	}
}

// persistHardStateLocked fsyncs term+vote before they are promised to
// any peer. Callers hold n.mu.
func (n *Node) persistHardStateLocked() error {
	err := saveHardState(n.hsPath, hardState{Term: n.term, VotedFor: n.votedFor})
	if err == nil {
		n.m.term.Set(float64(n.term))
	}
	return err
}

// IsLeader reports whether the node currently believes it leads.
func (n *Node) IsLeader() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role == leader
}

// LeaderClientAddr returns the client address of the node's current
// leader guess ("" when unknown).
func (n *Node) LeaderClientAddr() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.leaderClientAddrLocked()
}

func (n *Node) leaderClientAddrLocked() string {
	if n.leaderID == n.id {
		return n.self.ClientAddr
	}
	for _, p := range n.peers {
		if p.ID == n.leaderID {
			return p.ClientAddr
		}
	}
	return ""
}

// Status is a point-in-time consensus snapshot for health/debug
// surfaces.
type Status struct {
	ID          int
	Leader      bool
	LeaderID    int
	Term        uint64
	CommitIndex uint64
	Applied     uint64
	LogLen      int
	SnapIndex   uint64
}

// Status reports the node's consensus position.
func (n *Node) Status() Status {
	n.mu.Lock()
	defer n.mu.Unlock()
	return Status{
		ID:          n.id,
		Leader:      n.role == leader,
		LeaderID:    n.leaderID,
		Term:        n.term,
		CommitIndex: n.commitIndex,
		Applied:     n.applied,
		LogLen:      len(n.log),
		SnapIndex:   n.snapIndex,
	}
}

// notLeaderLocked builds the redirect error for a request this node
// cannot serve. Callers hold n.mu.
func (n *Node) notLeaderLocked() error {
	return &metadata.NotLeaderError{Leader: n.leaderClientAddrLocked()}
}
