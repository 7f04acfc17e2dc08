// Command garfield-controller deploys a whole cluster from a JSON manifest —
// the paper's Controller module (Section 3.2). A manifest is a scenario spec
// plus the address of every worker and server (internal/controller;
// examples/manifests has one per topology). The controller validates it
// (including GAR resilience preconditions), prints the per-node launch plan,
// and with -run starts every node as a local child process, streaming their
// output until the training nodes finish.
//
// Usage:
//
//	garfield-controller [-run] [-node-binary path] manifest.json
//
// Without -run it only prints the launch plan (the commands one would run on
// each host of a real multi-machine deployment).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"garfield/internal/controller"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "garfield-controller:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("garfield-controller", flag.ContinueOnError)
	launch := fs.Bool("run", false, "launch the cluster as local child processes")
	binary := fs.String("node-binary", "garfield-node", "path to the garfield-node executable")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: garfield-controller [-run] [-node-binary path] manifest.json")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("exactly one manifest file expected")
	}
	path := fs.Arg(0)
	m, err := controller.Load(path)
	if err != nil {
		return err
	}

	sp := m.Spec
	fmt.Printf("launch plan: %s, %d workers (fw=%d), %d servers (fps=%d), rule=%s\n",
		sp.Topology, len(m.Workers), sp.FW, len(m.Servers), sp.FPS, sp.Rule)
	cmds := m.Commands(path)
	for _, c := range cmds {
		fmt.Printf("  [%s %d @ %s] garfield-node %s\n", c.Role, c.Index, c.Addr, strings.Join(c.Args, " "))
	}
	if !*launch {
		return nil
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	l := controller.Launcher{Binary: *binary, Stdout: os.Stdout, Stderr: os.Stderr}
	return l.Run(ctx, cmds)
}
