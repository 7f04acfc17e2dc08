package main

import (
	"context"
	"fmt"
	"net"
	"sync"

	"garfield/internal/transport"
)

// loopback is a transport.Network over real TCP sockets on 127.0.0.1. The
// cluster names its nodes with logical addresses ("worker-3", "server-0");
// each Listen binds an ephemeral port and records it under the logical
// name, and Dial resolves the name back to the port.
type loopback struct {
	mu    sync.Mutex
	ports map[string]string // logical address -> 127.0.0.1:port
}

var _ transport.Network = (*loopback)(nil)

func newLoopback() *loopback { return &loopback{ports: make(map[string]string)} }

// Listen implements transport.Network.
func (l *loopback) Listen(addr string) (net.Listener, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.ports[addr]; ok {
		return nil, fmt.Errorf("%w: %q", transport.ErrAddrInUse, addr)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l.ports[addr] = ln.Addr().String()
	return &loopbackListener{Listener: ln, net: l, addr: addr}, nil
}

// Dial implements transport.Network.
func (l *loopback) Dial(ctx context.Context, addr string) (net.Conn, error) {
	l.mu.Lock()
	real, ok := l.ports[addr]
	l.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", transport.ErrConnRefused, addr)
	}
	var d net.Dialer
	return d.DialContext(ctx, "tcp", real)
}

// loopbackListener withdraws its logical name when closed.
type loopbackListener struct {
	net.Listener
	net  *loopback
	addr string
}

func (ll *loopbackListener) Close() error {
	ll.net.mu.Lock()
	delete(ll.net.ports, ll.addr)
	ll.net.mu.Unlock()
	return ll.Listener.Close()
}
