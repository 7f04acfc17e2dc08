package controller

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"

	"garfield/internal/core"
	"garfield/internal/rpc"
	"garfield/internal/scenario"
	"garfield/internal/transport"
)

// Linger is how long a finished node keeps answering pulls when the
// deployment has other server processes: there is no coordinator, and a
// replica that exits the moment its own loop ends would break the last model
// pulls of slower replicas.
const Linger = 5 * time.Second

// nodeName is the logical address core.Cluster gives node (role, i).
func nodeName(role string, i int) string { return role + "-" + strconv.Itoa(i) }

// addressBook is a transport.Network that resolves the cluster's logical
// node names to the manifest's addresses on an underlying network —
// transport.TCP in a deployment. Manifest.Validate matched the address lists
// to the fleet, so every name the cluster uses is in the book.
type addressBook struct {
	net   transport.Network
	addrs map[string]string
}

func (b addressBook) Listen(name string) (net.Listener, error) { return b.net.Listen(b.addrs[name]) }

func (b addressBook) Dial(ctx context.Context, name string) (net.Conn, error) {
	return b.net.Dial(ctx, b.addrs[name])
}

// processWiring is the core.Wiring of one node process: real serving loops
// for the nodes this process hosts, nothing for the rest (see
// core.Wiring.Serve), pooled clients that dial through the address book,
// wall time.
type processWiring struct {
	book   addressBook
	hosted map[string]bool
}

func (w processWiring) Serve(name string, h rpc.Handler) (io.Closer, error) {
	if !w.hosted[name] {
		return nil, nil
	}
	return rpc.Serve(w.book, name, h)
}

func (w processWiring) NewCaller(self string) rpc.Caller { return rpc.NewPooledClientAs(w.book, self) }

func (w processWiring) Clock() core.Clock { return core.WallClock() }

// Node is one process's share of a deployment: the manifest's whole cluster,
// built exactly as every other process builds it, of which only this node
// listens and only this node's replica is driven.
type Node struct {
	// Cluster is the materialized deployment; index it by the node's own
	// index to reach the hosted worker or server.
	Cluster *core.Cluster

	m     *Manifest
	role  string
	index int
	book  addressBook
}

// Start materializes the manifest's spec and brings up node (role, index)
// on network: after it returns the node is listening. Callers must Close it.
func Start(m *Manifest, role string, index int, network transport.Network) (*Node, error) {
	addrs := m.Workers
	switch {
	case role == RoleServer:
		addrs = m.Servers
	case role != RoleWorker:
		return nil, fmt.Errorf("%w: -role must be %s or %s, got %q", ErrManifest, RoleWorker, RoleServer, role)
	case m.Spec.Topology == scenario.TopoDecentralized:
		return nil, fmt.Errorf("%w: a decentralized peer runs as -role %s and hosts its worker half too", ErrManifest, RoleServer)
	}
	if index < 0 || index >= len(addrs) {
		return nil, fmt.Errorf("%w: -index %d out of range [0, %d) for role %s", ErrManifest, index, len(addrs), role)
	}
	w := processWiring{
		book:   addressBook{net: network, addrs: make(map[string]string, len(m.Workers)+len(m.Servers))},
		hosted: map[string]bool{nodeName(role, index): true},
	}
	for i, a := range m.Workers {
		w.book.addrs[nodeName(RoleWorker, i)] = a
	}
	for i, a := range m.Servers {
		w.book.addrs[nodeName(RoleServer, i)] = a
	}
	if m.Spec.Topology == scenario.TopoDecentralized {
		w.hosted[nodeName(RoleWorker, index)] = true
	}
	cfg, err := scenario.Materialize(m.Spec)
	if err != nil {
		return nil, err
	}
	c, err := core.NewClusterWith(cfg, w)
	if err != nil {
		return nil, fmt.Errorf("controller: start %s %d on %s: %w", role, index, addrs[index], err)
	}
	return &Node{Cluster: c, m: m, role: role, index: index, book: w.book}, nil
}

// Drives reports whether the node has a training loop to run (Train) or only
// serves until it is closed.
func (n *Node) Drives() bool { return n.m.drives(n.role, n.index) }

// Train waits until every other node of the deployment answers, then runs
// the spec's protocol — scenario.RunOn, the same rounds an in-process
// cluster executes — driving this node's replica against the remote ones.
func (n *Node) Train() (*core.Result, error) {
	if err := n.awaitPeers(); err != nil {
		return nil, err
	}
	return scenario.RunOn(n.Cluster, n.m.Spec)
}

// awaitPeers pings every node of the address book with exponential backoff
// until it answers or the pull timeout expires — the one startup
// synchronisation of a deployment: processes start in any order, and without
// this gate the fastest server's first pull would fail on refused dials. A
// peer that answers the ping at all (even by declining) is up and serving.
func (n *Node) awaitPeers() error {
	timeout := core.DefaultPullTimeout
	if ms := n.m.Spec.PullTimeoutMS; ms > 0 {
		timeout = time.Duration(ms) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	client := rpc.NewPooledClientAs(n.book, nodeName(n.role, n.index))
	defer client.Close()
	ping := func(role string, addrs []string) error {
		for i, addr := range addrs {
			name := nodeName(role, i)
			for backoff := 10 * time.Millisecond; ; backoff = min(2*backoff, 500*time.Millisecond) {
				_, err := client.Call(ctx, name, rpc.Request{Kind: rpc.KindPing})
				if err == nil || errors.Is(err, rpc.ErrNotServed) {
					break
				}
				select {
				case <-ctx.Done():
					return fmt.Errorf("controller: waiting for %s (%s): %w", name, addr, err)
				case <-time.After(backoff):
				}
			}
		}
		return nil
	}
	if err := ping(RoleWorker, n.m.Workers); err != nil {
		return err
	}
	return ping(RoleServer, n.m.Servers)
}

// Close stops serving and releases the cluster.
func (n *Node) Close() { n.Cluster.Close() }
