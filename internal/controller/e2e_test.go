package controller

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"garfield/internal/scenario"
)

// TestLauncherEndToEnd builds the real garfield-node binary and deploys a
// complete SSMW cluster as child processes over loopback TCP — the full
// multi-process path of the paper's Controller module. Nothing orders the
// children's startup but the server's own readiness gate.
func TestLauncherEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process deployment skipped in -short mode")
	}
	dir := t.TempDir()
	binary := filepath.Join(dir, "garfield-node")
	build := exec.Command("go", "build", "-o", binary, "garfield/cmd/garfield-node")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build garfield-node: %v\n%s", err, out)
	}

	sp := testSpec(scenario.TopoSSMW, 3, 0, 21)
	sp.Iterations = 20
	m := manifestFor(t, sp, freeLoopbackPorts(t, 4))
	raw, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "manifest.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if m, err = Load(path); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	l := Launcher{Binary: binary, Stdout: &out, Stderr: &out}
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	if err := l.Run(ctx, m.Commands(path)); err != nil {
		t.Fatalf("launcher: %v\noutput:\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "done: final accuracy") {
		t.Fatalf("server never finished:\n%s", out.String())
	}
}

func freeLoopbackPorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	listeners := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = l
		addrs[i] = fmt.Sprintf("127.0.0.1:%d", l.Addr().(*net.TCPAddr).Port)
	}
	for _, l := range listeners {
		_ = l.Close()
	}
	return addrs
}
