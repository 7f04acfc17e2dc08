package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"time"

	"garfield/internal/compress"
	"garfield/internal/core"
	"garfield/internal/gar"
	"garfield/internal/rpc"
	"garfield/internal/sgd"
	"garfield/internal/tensor"
)

// The probes call one layer's public functions in isolation, at the
// workload's exact rule, n, f, vector width, codec and transport. They run
// after the clusters are closed and share one time budget.

const (
	probeCount   = 8 // timed loops sharing the budget
	probeMinReps = 3
	probeMaxReps = 200
)

// timeReps calls fn until it has run probeMinReps times and used its share
// of the budget (once under -quick), and returns each call's milliseconds.
func timeReps(o options, budget time.Duration, fn func() error) ([]float64, error) {
	share := budget / probeCount
	var ms []float64
	start := time.Now()
	for len(ms) < probeMaxReps {
		t0 := time.Now()
		if err := fn(); err != nil {
			return nil, err
		}
		ms = append(ms, msOf(time.Since(t0)))
		if o.quick || (len(ms) >= probeMinReps && time.Since(start) >= share) {
			break
		}
	}
	return ms, nil
}

// probeAggregate times one aggregation call over vs at the given GOMAXPROCS.
// The rule is built after the switch: its arena sizes its per-share scratch
// from GOMAXPROCS at construction.
func probeAggregate(o options, budget time.Duration, procs int, f int, vs []tensor.Vector) (float64, error) {
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	rule, err := gar.New(o.w.rule, len(vs), f)
	if err != nil {
		return 0, err
	}
	dst, err := rule.AggregateInto(nil, vs) // sizes the arena
	if err != nil {
		return 0, err
	}
	ms, err := timeReps(o, budget, func() error {
		dst, err = rule.AggregateInto(dst, vs)
		return err
	})
	return median(ms), err
}

// probes fills m with the isolated per-layer metrics.
func probes(o options, in *inputs, budget time.Duration, m map[string]float64) error {
	w := o.w
	dim := in.arch.Dim()
	n, f, width := w.garShape(dim)
	rng := tensor.NewRNG(o.seed)
	vs := make([]tensor.Vector, n)
	for i := range vs {
		vs[i] = rng.NormalVector(width, 0, 1)
	}

	// gar: the pooled kernels against the same call on one core.
	procs := runtime.GOMAXPROCS(0)
	pooled, err := probeAggregate(o, budget, procs, f, vs)
	if err != nil {
		return err
	}
	single, err := probeAggregate(o, budget, 1, f, vs)
	if err != nil {
		return err
	}
	m["gar.aggregate_probe_ms"] = pooled
	m["gar.aggregate_probe_ms_p1"] = single
	m["gar.pool_speedup"] = single / pooled

	// compress: the workload's codec over one reply-sized vector.
	enc, err := compress.Parse(w.codec)
	if err != nil {
		return err
	}
	comp, err := compress.NewCompressor(enc, 0)
	if err != nil {
		return err
	}
	v := vs[0]
	payload := make([]byte, 0, comp.MaxEncodedSize(width))
	ms, err := timeReps(o, budget, func() error {
		payload = comp.Compress(payload[:0], v)
		return nil
	})
	if err != nil {
		return err
	}
	m["compress.encode_ms"] = median(ms)
	var decoded tensor.Vector
	ms, err = timeReps(o, budget, func() error { return compress.Decode(&decoded, enc, payload) })
	if err != nil {
		return err
	}
	m["compress.decode_ms"] = median(ms)
	m["compress.ratio"] = float64(compress.FP64EncodedSize(width)) / float64(len(payload))

	// tensor: the fp64 wire codec, encode plus decode.
	wire := make([]byte, v.EncodedSize())
	ms, err = timeReps(o, budget, func() error {
		if err := v.EncodeTo(wire); err != nil {
			return err
		}
		return decoded.UnmarshalBinary(wire)
	})
	if err != nil {
		return err
	}
	m["tensor.codec_ms"] = median(ms)

	if err := probePull(o, budget, dim, width, enc, v, payload, m); err != nil {
		return err
	}
	if err := probeRoundtrip(o, budget, 8*width, m); err != nil {
		return err
	}

	// sgd: one model update at the full dimension.
	opt, err := sgd.New(sgd.Constant(0.1))
	if err != nil {
		return err
	}
	client := rpc.NewPooledClient(newLoopback()) // required by NewServer, never dialled
	defer client.Close()
	srv, err := core.NewServer(core.ServerConfig{
		Arch: in.arch, Init: tensor.New(dim), Optimizer: opt, Client: client,
	})
	if err != nil {
		return err
	}
	grad := tensor.NewRNG(o.seed).NormalVector(dim, 0, 1e-3)
	ms, err = timeReps(o, budget, func() error { return srv.UpdateModel(grad) })
	if err != nil {
		return err
	}
	m["sgd.update_ms"] = median(ms)
	return nil
}

// probePull times PullFirstQInto against stub handlers that serve a prebuilt
// reply over the workload's transport: the pull path with zero compute. The
// request carries a full model, as every gradient pull does.
func probePull(o options, budget time.Duration, dim, width int, enc compress.Encoding, v tensor.Vector, payload []byte, m map[string]float64) error {
	w := o.w
	reply := rpc.Response{OK: true, Vec: v}
	if enc != compress.EncFP64 {
		reply = rpc.Response{OK: true, Enc: enc, Payload: payload}
	}
	wr := newWiring(w.tcp, nil)
	peers := make([]string, w.nw)
	for i := range peers {
		peers[i] = "worker-" + strconv.Itoa(i)
		srv, err := wr.Serve(peers[i], rpc.HandlerFunc(func(rpc.Request) rpc.Response { return reply }))
		if err != nil {
			return err
		}
		defer closeQuietly(srv)
	}
	cl := wr.NewCaller("server-0")
	defer closeQuietly(cl.(io.Closer))

	q, _, _ := w.garShape(dim)
	arena := gar.NewReplyArena(len(peers))
	req := rpc.Request{Kind: rpc.KindGetGradient, Accept: enc, Vec: tensor.New(dim)}
	if width < dim {
		req.Hi = uint32(width) // a ranged pull, as the sharded owners issue
	}
	pull := func() error {
		req.Step++
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		replies, err := cl.PullFirstQInto(ctx, peers, q, req, arena)
		if err == nil && len(replies[0].Vec) != width {
			err = fmt.Errorf("pull probe: reply of %d coordinates, want %d", len(replies[0].Vec), width)
		}
		return err
	}
	if err := pull(); err != nil { // dials the connections, sizes the arena
		return err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ms, err := timeReps(o, budget, pull)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return err
	}
	m["rpc.pull_probe_ms"] = median(ms)
	m["rpc.pull_probe_allocs"] = float64(m1.Mallocs-m0.Mallocs) / float64(len(ms))
	return nil
}

// probeRoundtrip times one frame of the given size sent through one
// connection of the workload's transport and echoed back.
func probeRoundtrip(o options, budget time.Duration, size int, m map[string]float64) error {
	wr := newWiring(o.w.tcp, nil)
	ln, err := wr.net.Listen("echo")
	if err != nil {
		return err
	}
	defer closeQuietly(ln)
	echoed := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			echoed <- err
			return
		}
		defer closeQuietly(conn)
		buf := make([]byte, size)
		for {
			if _, err := io.ReadFull(conn, buf); err != nil {
				echoed <- nil // the prober hung up
				return
			}
			if _, err := conn.Write(buf); err != nil {
				echoed <- err
				return
			}
		}
	}()
	conn, err := wr.net.Dial(context.Background(), "echo")
	if err != nil {
		return err
	}
	out, back := make([]byte, size), make([]byte, size)
	ms, err := timeReps(o, budget, func() error {
		if _, err := conn.Write(out); err != nil {
			return err
		}
		_, err := io.ReadFull(conn, back)
		return err
	})
	closeQuietly(conn)
	if echoErr := <-echoed; err == nil {
		err = echoErr
	}
	if err != nil {
		return err
	}
	m["transport.roundtrip_ms"] = median(ms)
	return nil
}

// closeQuietly closes something whose close error changes nothing: the probe
// already has its numbers.
func closeQuietly(c io.Closer) { _ = c.Close() }
