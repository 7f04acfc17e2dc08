package rpc

import (
	"errors"
	"fmt"
	"net"
	"sync"

	"garfield/internal/compress"
	"garfield/internal/tensor"
	"garfield/internal/transport"
)

// Handler serves pull requests. Garfield node objects (Server, Worker,
// Byzantine variants) implement it; the RPC layer is oblivious to roles.
type Handler interface {
	// Handle produces the response for one request. Implementations must
	// be safe for concurrent use: the server dispatches requests from many
	// connections in parallel, which is how the paper parallelizes
	// replicated communication. req.Vec is only valid for the duration of
	// the call — the server reuses its backing array for the next request
	// on the connection — so implementations must not retain it.
	//
	// Ownership of the reply. Whoever dispatched the request (the serving
	// loop here, sim.Wiring under the simulator) reads Response.Vec and
	// Response.Payload after Handle returns, until the reply has been
	// written or copied out. Without FreeVec the handler keeps owning Vec:
	// it must stay unmodified for that long, which in practice means a
	// vector nobody writes again (a fixed stub reply) or a fresh one left to
	// the collector. With FreeVec the handler gives Vec away: it was borrowed
	// from tensor.GetVec, nothing else references it, and the dispatcher
	// releases it with tensor.PutVec after its last read.
	// FreePayload is the same transfer for Payload (compress.GetBuf /
	// PutBuf). A handler that borrowed a vector and then declines the
	// request releases it itself.
	Handle(req Request) Response
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(Request) Response

var _ Handler = HandlerFunc(nil)

// Handle implements Handler.
func (f HandlerFunc) Handle(req Request) Response { return f(req) }

// Server accepts connections on one address and serves pull requests.
type Server struct {
	listener net.Listener
	handler  Handler

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// Serve starts a server for handler at addr on the given network. It returns
// once the listener is active; request dispatch runs in the background until
// Close.
func Serve(network transport.Network, addr string, handler Handler) (*Server, error) {
	if handler == nil {
		return nil, errors.New("rpc: nil handler")
	}
	l, err := network.Listen(addr)
	if err != nil {
		return nil, fmt.Errorf("rpc: listen %q: %w", addr, err)
	}
	s := &Server{
		listener: l,
		handler:  handler,
		conns:    make(map[net.Conn]struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listen address.
func (s *Server) Addr() string { return s.listener.Addr().String() }

// Close stops accepting, closes every live connection and waits for all
// serving goroutines to exit.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	err := s.listener.Close()
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		_ = conn.Close()
	}()
	// The request struct, its payload vector and the frame buffer all belong
	// to this connection and are reused across its requests: a steady-state
	// pull loop costs the server no per-request allocation beyond what the
	// handler itself does. One buffer serves both directions — a request's
	// bytes are dead once it is decoded, so the response is encoded over them.
	var (
		req      Request
		spareVec tensor.Vector
		frames   frameReader
	)
	send := func(resp Response) error {
		frames.buf = responseFrame(frames.buf, resp)
		_, err := conn.Write(frames.buf)
		return err
	}
	for {
		payload, err := frames.next(conn)
		if err != nil {
			if errors.Is(err, ErrChecksum) {
				// The frame arrived corrupted but fully framed: the
				// stream is positioned at the next frame boundary, so
				// decline the request and keep serving rather than
				// punishing the caller for a mangling network.
				if send(Response{}) != nil {
					return
				}
				continue
			}
			return
		}
		if req.Vec == nil {
			req.Vec = spareVec
		}
		spare, err := decodeRequestInto(&req, payload)
		if spare != nil {
			spareVec = spare
		}
		if err != nil {
			// A malformed request may come from a Byzantine peer;
			// answer not-OK rather than tearing the conn down so
			// honest retries on the same connection still work.
			req = Request{}
			if send(Response{}) != nil {
				return
			}
			continue
		}
		resp := s.handler.Handle(req)
		// Correlate the reply with the request it answers (see
		// Response.EchoKind): handlers stay oblivious, the serving loop
		// stamps. The decline paths above deliberately send a zero echo —
		// an "anonymous decline" for requests the server could not read.
		resp.EchoKind, resp.EchoStep = req.Kind, req.Step
		err = send(resp)
		// The frame has been copied out: hand back what the handler borrowed
		// for it (see Handler).
		if resp.FreePayload {
			compress.PutBuf(resp.Payload)
		}
		if resp.FreeVec {
			tensor.PutVec(resp.Vec)
		}
		if err != nil {
			return
		}
	}
}
