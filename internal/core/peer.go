package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"garfield/internal/rpc"
	"garfield/internal/tensor"
)

// PeerNode is the node object of the decentralized application when deployed
// across processes: one RPC endpoint playing both roles, answering gradient
// pulls from its Worker half and model / aggregated-gradient pulls from its
// Server half (Listing 3 creates "both a Server and a Worker object" per
// node).
type PeerNode struct {
	worker *Worker
	server *Server

	// DecentralizedStep runs on the node's single training-loop goroutine,
	// so the rule arenas and output buffers are reused across iterations
	// (rebuilt only if the caller changes rule or quorum shape mid-run).
	gradAggs, modelAggs aggCache
}

var _ rpc.Handler = (*PeerNode)(nil)

// NewPeerNode pairs a worker and a server into one endpoint.
func NewPeerNode(worker *Worker, server *Server) (*PeerNode, error) {
	if worker == nil || server == nil {
		return nil, fmt.Errorf("%w: peer node needs both halves", ErrConfig)
	}
	return &PeerNode{worker: worker, server: server}, nil
}

// Server exposes the server half (the training loop driver).
func (p *PeerNode) Server() *Server { return p.server }

// Handle implements rpc.Handler by role dispatch: gradient requests go to
// the worker half, everything else to the server half.
func (p *PeerNode) Handle(req rpc.Request) rpc.Response {
	switch req.Kind {
	case rpc.KindGetGradient:
		return p.worker.Handle(req)
	default:
		return p.server.Handle(req)
	}
}

// DecentralizedStep executes one iteration of Listing 3 for this node
// against remote peers — the same pull-and-aggregate blocks the in-process
// decentralized round is made of, without its stage barriers: here the
// contract step retries until a quorum of peers has published an aggregated
// gradient for the round. q is the collection quorum (n-f, or n under
// synchrony).
func (p *PeerNode) DecentralizedStep(ctx context.Context, iteration, q, f int, rule, modelRule string, contractSteps int) error {
	if err := p.step(ctx, iteration, q, f, rule, modelRule, contractSteps); err != nil {
		return fmt.Errorf("core: peer step %d: %w", iteration, err)
	}
	return nil
}

func (p *PeerNode) step(ctx context.Context, iteration, q, f int, rule, modelRule string, contractSteps int) error {
	s, clk := p.server, WallClock()
	gradAgg, err := p.gradAggs.get(0, rule, q, f)
	if err != nil {
		return err
	}
	modelAgg, err := p.modelAggs.get(0, modelRule, q, f)
	if err != nil {
		return err
	}
	aggr, err := s.pullAggregate(ctx, s.gradientsReq(iteration, q), gradAgg, clk, nil)
	if err != nil {
		return err
	}
	for step := 0; step < contractSteps; step++ {
		s.SetLatestAggrGrad(aggr)
		if aggr, err = contractPullWithRetry(ctx, s, q, gradAgg); err != nil {
			return fmt.Errorf("contract %d: %w", step, err)
		}
	}
	if err := s.UpdateModel(aggr); err != nil {
		return err
	}
	return s.exchangeModels(ctx, q, modelAgg, clk, nil)
}

// contractPullWithRetry keeps pulling until q peers serve an aggregated
// gradient or ctx expires, then re-aggregates. Peers that have not reached
// the publish point of the current round decline, which surfaces as a quorum
// miss — transient by construction, hence the retry loop (the cross-process
// substitute for the in-process stage barrier).
func contractPullWithRetry(ctx context.Context, s *Server, q int, agg *Aggregator) (tensor.Vector, error) {
	backoff := 2 * time.Millisecond
	for {
		aggr, err := s.pullAggregate(ctx, s.aggrGradsReq(q), agg, WallClock(), nil)
		if !errors.Is(err, rpc.ErrQuorum) {
			return aggr, err
		}
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("core: contract quorum: %w", ctx.Err())
		//lint:allow wallclock(quorum-retry pacing of the cross-process PeerNode, which runs on real sockets only; affects liveness, never a deterministic artifact)
		case <-time.After(backoff):
		}
		if backoff < 100*time.Millisecond {
			backoff *= 2
		}
	}
}
