package main

import (
	"sync"
	"time"
)

// The benchmark runs on a few cores of a shared host whose speed drifts by
// ±10–15 % from one minute to the next, far more than the bounds the timing
// metrics are held to. The harness therefore times a fixed piece of work of
// its own — the reference kernel — before and after every set-up and every
// sample segment, and reports every end-to-end time divided by the host's
// slowdown at that moment: an estimate of the time on a host on which the
// reference kernel takes referenceNominalMs. The kernel lives here, not in
// the program, so no change to the program can move it.

const (
	// refIn × refOut is the reference kernel's weight matrix, the size of
	// the MLP workloads' hidden layer (784 × 128 float64, 800 KB a core).
	refIn, refOut = 784, 128
	// refPasses is the number of forward + backward passes of one reading,
	// about 70 ms.
	refPasses = 600
	// referenceNominalMs is one reading on the 2-core review box (Xeon
	// 2.1 GHz, go1.24) in a quiet stretch. A slowdown of 1 is that speed.
	referenceNominalMs = 70.0
	// hostShare is the share of a round's time that slows down with the
	// reference kernel. The kernel is pure arithmetic; a round also waits
	// for wake-ups, system calls and copies, which contention on the host
	// slows less. Fitted over 40 runs of the four driver workloads with the
	// host between 1x and 2x nominal: the latency-bound rounds (ssmw_small,
	// ssmw_lin1m_int8_tcp) repeat best at 0.6, the compute-bound ones
	// (ssmw_mlp100k, msmw_mlp100k) at 0.8; at 0.7 every workload's
	// round_ms_p50 and updates_per_s spread by under 5 % over ten runs where
	// they spread by 7–22 % as measured and by up to 9 % at a share of 1.
	hostShare = 0.7
)

// refKernel is the per-core state of the reference kernel.
type refKernel struct {
	w, x, y []float64
}

func newRefKernel() *refKernel {
	k := &refKernel{
		w: make([]float64, refIn*refOut),
		x: make([]float64, refIn),
		y: make([]float64, refOut),
	}
	for i := range k.w {
		k.w[i] = float64(i%17) * 0.01
	}
	for i := range k.x {
		k.x[i] = float64(i%5) * 0.1
	}
	return k
}

// pass is a matrix-vector product and a rank-one update of the matrix: the
// arithmetic and the memory traffic of one dense layer's forward and
// backward step.
func (k *refKernel) pass() {
	for j := range k.y {
		row := k.w[j*refIn : (j+1)*refIn]
		var s float64
		for i, x := range k.x {
			s += row[i] * x
		}
		k.y[j] = s
	}
	for j, y := range k.y {
		row := k.w[j*refIn : (j+1)*refIn]
		g := y * 1e-9
		for i, x := range k.x {
			row[i] -= g * x
		}
	}
}

// reference times the host: one kernel per pinned core, all at once, the way
// a round keeps every core busy.
type reference struct {
	kernels []*refKernel
}

func newReference(procs int) *reference {
	r := &reference{kernels: make([]*refKernel, procs)}
	for i := range r.kernels {
		r.kernels[i] = newRefKernel()
	}
	r.read() // the first reading pays for paging the matrices in
	return r
}

// read runs the kernels and returns the wall milliseconds they took.
func (r *reference) read() float64 {
	t0 := time.Now()
	var wg sync.WaitGroup
	for _, k := range r.kernels {
		wg.Add(1)
		go func(k *refKernel) {
			defer wg.Done()
			for p := 0; p < refPasses; p++ {
				k.pass()
			}
		}(k)
	}
	wg.Wait()
	return msOf(time.Since(t0))
}

// slowdown is the factor by which the host stretched an interval of the
// program's work, from the readings taken before and after it: 1 at the
// nominal speed, 1 + hostShare/5 when the reference kernel took a fifth
// longer.
func slowdown(before, after float64) float64 {
	return 1 + hostShare*((before+after)/2/referenceNominalMs-1)
}
