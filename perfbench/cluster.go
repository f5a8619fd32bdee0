package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/blockstore"
	"repro/internal/metadata"
	"repro/internal/metadata/replica"
	"repro/internal/obs"
	"repro/internal/robust"
	"repro/internal/transport"
)

// cluster is one loopback deployment built from the constructors the
// daemons use: eight transport.Server block servers, a three-node
// replicated metadata group, and one robust.Client dialed to both over
// TCP. Everything lives in this process so a traced run can wrap the
// server-side stores.
type cluster struct {
	dir string

	stores  []blockstore.Store // as handed to transport.NewServer
	servers []*transport.Server
	nodes   []*replica.Node
	metaSrv []*metadata.NetworkServer
	meta    *metadata.RemoteClient
	conns   []*transport.Client
	client  *robust.Client

	serving sync.WaitGroup // Serve loops
}

// boot starts a fresh cluster under a new directory in tmpRoot. tr,
// when non-nil, wraps the four traced boundaries; serverObs, when
// non-nil, receives the block servers' transport_server_* metrics.
func boot(in *inputs, tmpRoot string, tr *tracer, serverObs *obs.Registry) (c *cluster, err error) {
	dir, err := os.MkdirTemp(tmpRoot, "cluster-")
	if err != nil {
		return nil, fmt.Errorf("cluster dir: %w", err)
	}
	c = &cluster{dir: dir}
	defer func() {
		if err != nil {
			c.close()
			c = nil
		}
	}()
	if err := c.startMeta(); err != nil {
		return nil, err
	}
	var meta metadata.API = c.meta
	if tr != nil {
		meta = tr.wrapMeta(c.meta)
	}
	w := in.w
	c.client, err = robust.NewClient(meta, robust.Options{
		BlockBytes: w.blockBytes,
		ChunkBytes: w.chunkBytes,
		HedgeReads: true,
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < numServers; i++ {
		addr, err := c.startServer(in, i, tr, serverObs)
		if err != nil {
			return nil, err
		}
		conn, err := transport.Dial(addr, transport.ClientOptions{})
		if err != nil {
			return nil, err
		}
		c.conns = append(c.conns, conn)
		var store blockstore.Store = conn
		if tr != nil {
			store = tr.wrapClient(addr, conn)
		}
		if err := c.client.AttachStore(addr, store); err != nil {
			return nil, err
		}
		if err := meta.RegisterServer(metadata.Server{Addr: addr, CapacityBytes: 1 << 40}); err != nil {
			return nil, fmt.Errorf("register %s: %w", addr, err)
		}
	}
	return c, nil
}

// startMeta boots the three-node replicated metadata group, waits for
// a leader, and dials the failover client to all three endpoints.
func (c *cluster) startMeta() error {
	const members = 3
	raftLns := make([]net.Listener, members)
	clientLns := make([]net.Listener, members)
	peers := make([]replica.Peer, members)
	for i := range peers {
		var err error
		if raftLns[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			closeAll(raftLns, clientLns)
			return err
		}
		if clientLns[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			closeAll(raftLns, clientLns)
			return err
		}
		peers[i] = replica.Peer{ID: i + 1, RaftAddr: raftLns[i].Addr().String(), ClientAddr: clientLns[i].Addr().String()}
	}
	endpoints := make([]string, members)
	for i := range peers {
		node, err := replica.Open(replica.Config{
			ID:    i + 1,
			Peers: peers,
			Dir:   filepath.Join(c.dir, "meta"+strconv.Itoa(i+1)),
		})
		if err != nil {
			closeAll(raftLns[i:], clientLns[i:])
			return err
		}
		c.nodes = append(c.nodes, node)
		if err := node.Serve(raftLns[i]); err != nil {
			closeAll(raftLns[i+1:], clientLns[i:])
			return err
		}
		srv := metadata.NewNetworkServerFor(node)
		c.metaSrv = append(c.metaSrv, srv)
		ln := clientLns[i]
		c.serving.Add(1)
		go func() {
			defer c.serving.Done()
			_ = srv.Serve(ln) // returns nil after Close
		}()
		endpoints[i] = peers[i].ClientAddr
	}
	if err := c.awaitLeader(10 * time.Second); err != nil {
		return err
	}
	meta, err := metadata.DialRemoteMulti(endpoints, metadata.RemoteOptions{})
	if err != nil {
		return err
	}
	c.meta = meta
	return nil
}

func closeAll(lns ...[]net.Listener) {
	for _, l := range lns {
		for _, ln := range l {
			if ln != nil {
				ln.Close()
			}
		}
	}
}

func (c *cluster) awaitLeader(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		for _, n := range c.nodes {
			if n.IsLeader() {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return errors.New("metadata group elected no leader")
}

// term is the highest consensus term any metadata member has seen.
func (c *cluster) term() uint64 {
	var t uint64
	for _, n := range c.nodes {
		t = max(t, n.Status().Term)
	}
	return t
}

// startServer boots block server i and returns its address. It serves
// a MemStore, or for disk workloads a FileStore in the cluster
// directory behind a SlowStore with the server's seeded profile.
func (c *cluster) startServer(in *inputs, i int, tr *tracer, serverObs *obs.Registry) (string, error) {
	var store blockstore.Store = blockstore.NewMemStore()
	if in.w.disk {
		fs, err := blockstore.NewFileStore(filepath.Join(c.dir, "server"+strconv.Itoa(i)))
		if err != nil {
			return "", err
		}
		store = blockstore.NewSlowStore(fs, in.profiles[i], in.seed*numServers+int64(i))
	}
	c.stores = append(c.stores, store)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	served := store
	if tr != nil {
		served = tr.wrapServer(addr, store)
	}
	srv := transport.NewServer(served, transport.ServerOptions{Obs: serverObs})
	c.servers = append(c.servers, srv)
	c.serving.Add(1)
	go func() {
		defer c.serving.Done()
		_ = srv.Serve(ln) // returns nil after Close
	}()
	return addr, nil
}

// close tears the whole cluster down: client connections, block
// servers, stores, the metadata group, then the directory. It waits
// for every Serve loop to return.
func (c *cluster) close() error {
	var errs []error
	for _, conn := range c.conns {
		errs = append(errs, conn.Close())
	}
	if c.meta != nil {
		errs = append(errs, c.meta.Close())
	}
	for _, s := range c.servers {
		errs = append(errs, s.Close())
	}
	for _, s := range c.stores {
		errs = append(errs, s.Close())
	}
	for _, s := range c.metaSrv {
		errs = append(errs, s.Close())
	}
	for _, n := range c.nodes {
		errs = append(errs, n.Close())
	}
	c.serving.Wait()
	errs = append(errs, os.RemoveAll(c.dir))
	return errors.Join(errs...)
}

// preload writes every live key's first version with preloadWorkers
// writers in parallel.
func (c *cluster) preload(ctx context.Context, in *inputs, keys []*keyState) error {
	w := in.w
	next := make(chan int)
	errc := make(chan error, w.preloadWorkers)
	var wg sync.WaitGroup
	for i := 0; i < w.preloadWorkers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				ks := keys[k]
				if _, err := c.write(ctx, in, segName(k, 0), ks.base); err != nil {
					errc <- fmt.Errorf("preload key %d: %w", k, err)
					return
				}
			}
		}()
	}
	var err error
feed:
	for k := range keys {
		select {
		case next <- k:
		case err = <-errc:
			break feed
		}
	}
	close(next)
	wg.Wait()
	if err != nil {
		return err
	}
	select {
	case err = <-errc:
	default:
	}
	return err
}

// write stores pool[src:src+objBytes] under name — streamed through
// WriteFrom when the workload sets chunkBytes — and checks that it
// committed at least N blocks.
func (c *cluster) write(ctx context.Context, in *inputs, name string, src int64) (st robust.WriteStats, err error) {
	data := in.pool[src : src+in.w.objBytes]
	if in.w.chunkBytes > 0 {
		st, err = c.client.WriteFrom(ctx, name, bytes.NewReader(data), int64(len(data)), nil)
	} else {
		st, err = c.client.Write(ctx, name, data, nil)
	}
	if err == nil && st.Committed < st.N {
		err = fmt.Errorf("write %s committed %d of %d blocks", name, st.Committed, st.N)
	}
	return st, err
}
