package controller

import (
	"context"
	"fmt"
	"io"
	"os/exec"
	"sync"
)

// Launcher runs a launch plan as local child processes — the single-machine
// counterpart of the paper's SSH deployment. Start order does not matter:
// every driving node gates its first round on its peers answering (awaitPeers).
// The launcher waits for the driving nodes to exit and then terminates the
// ones that only serve.
type Launcher struct {
	// Binary is the garfield-node executable path.
	Binary string
	// Stdout and Stderr receive the children's combined output.
	Stdout io.Writer
	Stderr io.Writer
}

// syncWriter serializes writes from concurrently-running child processes;
// handing several exec.Cmds the same raw writer would race.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	if s.w == nil {
		return len(p), nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// Run starts every command of the plan (Manifest.Commands) and blocks until
// the driving nodes finish or the context is cancelled. Serving-only nodes
// are killed on return.
func (l *Launcher) Run(ctx context.Context, cmds []NodeCommand) error {
	if l.Binary == "" {
		return fmt.Errorf("%w: launcher needs the garfield-node binary path", ErrManifest)
	}
	stdout := &syncWriter{w: l.Stdout}
	stderr := &syncWriter{w: l.Stderr}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var serving []*exec.Cmd
	var wg sync.WaitGroup // the driving nodes
	defer func() {
		cancel() // CommandContext kills whatever is still running
		wg.Wait()
		for _, cmd := range serving {
			_ = cmd.Wait()
		}
	}()
	errs := make(chan error, len(cmds))
	for _, nc := range cmds {
		nc := nc
		cmd := exec.CommandContext(runCtx, l.Binary, nc.Args...)
		cmd.Stdout = stdout
		cmd.Stderr = stderr
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("controller: start %s %d (%s): %w", nc.Role, nc.Index, nc.Addr, err)
		}
		if !nc.Drives {
			serving = append(serving, cmd)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := cmd.Wait(); err != nil {
				errs <- fmt.Errorf("controller: %s %d (%s): %w", nc.Role, nc.Index, nc.Addr, err)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return err // report the first failure
	}
	return ctx.Err()
}
