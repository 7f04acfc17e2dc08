// Command garfield-node runs one node of a Garfield deployment as a
// standalone process over TCP — the deployment path of the paper's
// Controller module. Every process of a deployment is started with the same
// manifest (a scenario spec plus the address of every node, see
// internal/controller and examples/manifests) and is told which node it is:
//
//	garfield-node -manifest ssmw.json -role worker -index 0 &
//	garfield-node -manifest ssmw.json -role worker -index 1 &
//	garfield-node -manifest ssmw.json -role worker -index 2 &
//	garfield-node -manifest ssmw.json -role server -index 0
//
// The process materializes the manifest's spec into the same cluster an
// in-process run builds, listens for its own node only, and runs the same
// rounds: a server drives its replica against the remote nodes and prints
// its accuracy curve; workers and declared-Byzantine replicas serve until
// killed. garfield-controller prints (and with -run executes) these command
// lines for a whole manifest.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"time"

	"garfield/internal/controller"
	"garfield/internal/transport"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "garfield-node:", err)
		os.Exit(1)
	}
}

// run is the whole process; cancelling ctx stops a serving node (an
// interrupt does too) and cuts a finished node's linger short.
func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("garfield-node", flag.ContinueOnError)
	path := fs.String("manifest", "", "deployment manifest (JSON: spec + worker and server addresses; required)")
	role := fs.String("role", "", "which node this process is: worker or server (required)")
	index := fs.Int("index", 0, "the node's position in the manifest's worker or server list")
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, err := controller.Load(*path)
	if err != nil {
		return err
	}
	node, err := controller.Start(m, *role, *index, transport.TCP{})
	if err != nil {
		return err
	}
	defer node.Close()
	if !node.Drives() {
		fmt.Fprintf(out, "%s %d serving\n", *role, *index)
		ctx, stop := signal.NotifyContext(ctx, os.Interrupt)
		defer stop()
		<-ctx.Done()
		return nil
	}
	fmt.Fprintf(out, "%s %d: %s, rule %s over %d workers (fw=%d), %d server replicas (fps=%d)\n",
		*role, *index, m.Spec.Topology, m.Spec.Rule, len(m.Workers), m.Spec.FW, len(m.Servers), m.Spec.FPS)
	res, err := node.Train()
	if err != nil {
		return err
	}
	for _, p := range res.Accuracy.Points {
		fmt.Fprintf(out, "%s %d iteration %4.0f  accuracy %.4f\n", *role, *index, p.X, p.Y)
	}
	fmt.Fprintf(out, "%s %d done: final accuracy %.4f (%d updates, %.1f updates/s)\n",
		*role, *index, res.Accuracy.Points[len(res.Accuracy.Points)-1].Y, res.Updates, res.UpdatesPerSec())
	if len(m.Servers) > 1 {
		select {
		case <-ctx.Done():
		case <-time.After(controller.Linger):
		}
	}
	return nil
}
