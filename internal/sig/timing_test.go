package sig

import (
	"crypto/sha256"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// TestSignTiming is a dudect-style leak report (Reparaz, Balasch and
// Verbauwhede, "Dude, is my code constant time?", DATE 2017): Welch's t
// over the kernel's sign timings in two classes, drawn at random and
// measured interleaved, on each implementation of the products — a fixed
// message against random ones, and one key against another over the same
// random messages. It logs |t|, over all samples and below their pooled
// 90th percentile (which drops most scheduler noise), and never fails: a
// shared CI runner is too noisy for a gate, and the kernel's constant-time
// argument rests on its checklist and TestKernelTraceIndependentOfSecrets.
// dudect reads |t| above about 4.5 as a leak worth a look. It takes about
// a second; -short skips it.
func TestSignTiming(t *testing.T) {
	if testing.Short() {
		t.Skip("a timing report, not a check")
	}
	const samples = 1000 // per class
	keyA := fixedKey(t, "timing-a", primeOrders[0])
	keyB := fixedKey(t, "timing-b", primeOrders[0])
	fixed := sha256.Sum256(make([]byte, 40))
	onEachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(6))
		random := func() [32]byte {
			var msg [40]byte
			rng.Read(msg[:])
			return sha256.Sum256(msg[:])
		}
		comparisons := []struct {
			name string
			sign func(class int, digest *[32]byte)
		}{
			{"fixed message against random", func(class int, digest *[32]byte) {
				if class == 0 {
					digest = &fixed
				}
				keyA.crt.sign(digest)
			}},
			{"key A against key B", func(class int, digest *[32]byte) {
				if class == 0 {
					keyA.crt.sign(digest)
				} else {
					keyB.crt.sign(digest)
				}
			}},
		}
		for _, c := range comparisons {
			var times [2][]float64
			for len(times[0]) < samples || len(times[1]) < samples {
				class := rng.Intn(2)
				if len(times[class]) == samples {
					class = 1 - class
				}
				digest := random()
				start := time.Now()
				c.sign(class, &digest)
				times[class] = append(times[class], float64(time.Since(start).Nanoseconds()))
			}
			all := welchT(times[0], times[1])
			cut := percentile(append(append([]float64(nil), times[0]...), times[1]...), 0.9)
			cropped := welchT(below(times[0], cut), below(times[1], cut))
			t.Logf("%s: |t| = %.2f over all %d samples, %.2f below the 90th percentile (%.0f µs)",
				c.name, math.Abs(all), 2*samples, math.Abs(cropped), cut/1e3)
		}
	})
}

// welchT is Welch's t statistic of two samples.
func welchT(a, b []float64) float64 {
	meanVar := func(x []float64) (mean, variance float64) {
		for _, v := range x {
			mean += v
		}
		mean /= float64(len(x))
		for _, v := range x {
			variance += (v - mean) * (v - mean)
		}
		return mean, variance / float64(len(x)-1)
	}
	ma, va := meanVar(a)
	mb, vb := meanVar(b)
	return (ma - mb) / math.Sqrt(va/float64(len(a))+vb/float64(len(b)))
}

// percentile returns the p-quantile of x, which it sorts.
func percentile(x []float64, p float64) float64 {
	sort.Float64s(x)
	return x[int(p*float64(len(x)-1))]
}

// below returns the samples of x under cut.
func below(x []float64, cut float64) []float64 {
	var out []float64
	for _, v := range x {
		if v < cut {
			out = append(out, v)
		}
	}
	return out
}
