package apps

import (
	"math"
	"testing"
	"testing/quick"

	"lazyrc/internal/config"
	"lazyrc/internal/machine"
)

func newMachine(t *testing.T, procs int) *machine.Machine {
	t.Helper()
	m, err := machine.New(config.Default(procs), "lrc")
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestGaussVerifyCatchesCorruption: the serial-reference check must
// actually detect a wrong element, or the whole correctness gate is
// toothless.
func TestGaussVerifyCatchesCorruption(t *testing.T) {
	g := NewGauss(Tiny)
	m := newMachine(t, 4)
	g.Setup(m)
	m.Run(g.Worker)
	if err := g.Verify(); err != nil {
		t.Fatalf("clean run failed verification: %v", err)
	}
	g.a.Poke(5, g.a.Peek(5)+1e-3)
	if err := g.Verify(); err == nil {
		t.Fatal("corrupted result passed verification")
	}
}

func TestCholeskyVerifyCatchesCorruption(t *testing.T) {
	c := NewCholesky(Tiny)
	m := newMachine(t, 4)
	c.Setup(m)
	m.Run(c.Worker)
	if err := c.Verify(); err != nil {
		t.Fatalf("clean run failed verification: %v", err)
	}
	c.band.Poke(3, c.band.Peek(3)*1.01)
	if err := c.Verify(); err == nil {
		t.Fatal("corrupted factor passed verification")
	}
}

// TestCholeskyFactorIsCorrect cross-checks the banded factorization (the
// serial reference) against a dense Cholesky on a small instance:
// L·Lᵀ must reconstruct the original band.
func TestCholeskyFactorIsCorrect(t *testing.T) {
	c := NewCholesky(Tiny)
	m := newMachine(t, 4)
	c.Setup(m)
	n, bw := c.n, c.bw

	// Rebuild the original symmetric matrix from the seeded band.
	rng := lcg(99991)
	orig := make([][]float64, n)
	for i := range orig {
		orig[i] = make([]float64, n)
	}
	for k := 0; k < n; k++ {
		for d := 1; d <= bw && k+d < n; d++ {
			v := (rng.f64() - 0.5) / float64(bw)
			orig[k+d][k] = v
			orig[k][k+d] = v
		}
		orig[k][k] = 2.0 + rng.f64()
	}

	// The reference factor is in c.want (column-band layout).
	L := make([][]float64, n)
	for i := range L {
		L[i] = make([]float64, n)
	}
	for k := 0; k < n; k++ {
		for d := 0; d <= bw && k+d < n; d++ {
			L[k+d][k] = c.want[k*(bw+1)+d]
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			var sum float64
			for k := 0; k <= j; k++ {
				sum += L[i][k] * L[j][k]
			}
			if math.Abs(sum-orig[i][j]) > 1e-8 {
				t.Fatalf("L·Lᵀ[%d][%d] = %g, want %g", i, j, sum, orig[i][j])
			}
		}
	}
}

func TestFFTReverseBitsProperty(t *testing.T) {
	f := func(x uint16, bits uint8) bool {
		b := int(bits)%12 + 1
		v := int(x) % (1 << b)
		return reverseBits(reverseBits(v, b), b) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestFFTAgainstDFT checks the full transform (via the untimed serial
// reference) against a direct O(n²) DFT.
func TestFFTAgainstDFT(t *testing.T) {
	f := NewFFT(Tiny) // 256 points
	m := newMachine(t, 4)
	f.Setup(m)

	// The four-step pipeline (row FFT, twiddled transpose, row FFT)
	// computes the DFT of the input read column-major, with X[k1 + s·k2]
	// landing at out[k1·s + k2]. Build that column-major sequence.
	n, side := f.n, f.side
	rng := lcg(777)
	inR := make([]float64, n)
	inI := make([]float64, n)
	for i := 0; i < n; i++ {
		inR[i] = rng.f64() - 0.5
		inI[i] = rng.f64() - 0.5
	}
	xr := make([]float64, n)
	xi := make([]float64, n)
	for j := 0; j < n; j++ {
		src := (j%side)*side + j/side
		xr[j] = inR[src]
		xi[j] = inI[src]
	}
	for _, k := range []int{0, 1, 7, 100, n - 1} {
		var wr, wi float64
		for i := 0; i < n; i++ {
			ang := -2 * math.Pi * float64(k) * float64(i) / float64(n)
			c, s := math.Cos(ang), math.Sin(ang)
			wr += xr[i]*c - xi[i]*s
			wi += xr[i]*s + xi[i]*c
		}
		k1, k2 := k%side, k/side
		got := f.wantRe[k1*side+k2]
		goti := f.wantIm[k1*side+k2]
		if math.Abs(got-wr) > 1e-6 || math.Abs(goti-wi) > 1e-6 {
			t.Fatalf("X[%d] = (%g,%g), DFT says (%g,%g)", k, got, goti, wr, wi)
		}
	}
}

func TestBLUOwnerCoversGrid(t *testing.T) {
	l := NewBLU(Tiny)
	nb := l.n / l.b
	for _, np := range []int{1, 2, 4, 8, 16} {
		seen := map[int]bool{}
		for bi := 0; bi < nb; bi++ {
			for bj := 0; bj < nb; bj++ {
				o := l.owner(bi, bj, np)
				if o < 0 || o >= np {
					t.Fatalf("owner(%d,%d,%d) = %d out of range", bi, bj, np, o)
				}
				seen[o] = true
			}
		}
		pw, ph := config.MeshDims(np)
		wantOwners := min(ph, nb) * min(pw, nb)
		if len(seen) != wantOwners {
			t.Fatalf("np=%d: %d owners used, want %d", np, len(seen), wantOwners)
		}
	}
}

func TestBLUBlockEdgesStraddleLines(t *testing.T) {
	// The workload's false sharing depends on block widths that are not
	// multiples of the 128-byte line — guard the sizing.
	for _, sc := range []Scale{Tiny, Small, Medium, Paper} {
		l := NewBLU(sc)
		if (l.b*8)%128 == 0 {
			t.Errorf("%v: block width %d doubles is line-aligned; no false sharing", sc, l.b)
		}
		if l.n%l.b != 0 {
			t.Errorf("%v: block %d does not divide n %d", sc, l.b, l.n)
		}
	}
}

func TestLocusPathCells(t *testing.T) {
	type pt struct{ x, y int }
	collect := func(x1, y1, x2, y2, xm int) []pt {
		var cells []pt
		pathCells(x1, y1, x2, y2, xm, func(x, y int) {
			cells = append(cells, pt{x, y})
		})
		return cells
	}
	for _, xm := range bendCandidates(1, 4) {
		cells := collect(1, 1, 4, 3, xm)
		want := abs(4-1) + abs(3-1) + 1
		if len(cells) != want {
			t.Fatalf("bend %d: %d cells, want %d", xm, len(cells), want)
		}
		last := cells[len(cells)-1]
		if last.x != 4 || last.y != 3 {
			t.Fatalf("bend %d: path ends at (%d,%d), want (4,3)", xm, last.x, last.y)
		}
	}
	// Degenerate wire: single cell.
	if cells := collect(2, 2, 2, 2, 2); len(cells) != 1 {
		t.Fatalf("point wire visited %d cells", len(cells))
	}
}

func TestLocusPathCellsProperty(t *testing.T) {
	// Property: for every candidate bend, the route has exactly the
	// Manhattan length, stays in bounds, and ends at the target.
	f := func(a, b, c, d uint8) bool {
		x1, y1 := int(a)%32, int(b)%16
		x2, y2 := int(c)%32, int(d)%16
		for _, xm := range bendCandidates(x1, x2) {
			n := 0
			ok := true
			pathCells(x1, y1, x2, y2, xm, func(x, y int) {
				n++
				if x < 0 || x >= 32 || y < 0 || y >= 16 {
					ok = false
				}
			})
			if !ok || n != abs(x2-x1)+abs(y2-y1)+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMp3dCellOfBounds(t *testing.T) {
	w := NewMp3d(Tiny)
	f := func(x, y float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) {
			return true
		}
		c := w.cellOf(x, y)
		return c >= 0 && c < w.rows*w.cols
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestBarnesTreeMassConservation: after the (untimed) tree build, the
// root's accumulated mass must equal the sum of all body masses.
func TestBarnesTreeMassConservation(t *testing.T) {
	b := NewBarnes(Tiny)
	m := newMachine(t, 4)
	b.Setup(m)
	d := m.Direct()
	b.buildTree(d)
	var want float64
	for i := 0; i < b.nb; i++ {
		want += b.mass.Peek(i)
	}
	got := b.wmass.Peek(0)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("root mass = %g, want %g", got, want)
	}
	nodes := int(b.nnodes.Peek(0))
	if nodes < 1 || nodes > b.maxNodes {
		t.Fatalf("node count %d out of bounds", nodes)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestMp3dVelocitySums(t *testing.T) {
	w := NewMp3d(Tiny)
	m := newMachine(t, 4)
	w.Setup(m)
	v := w.Answer()
	sx, sy := v[0], v[1]
	if sx <= 0 {
		t.Fatalf("wind-axis momentum %v should be positive", sx)
	}
	if sy != sy { // NaN guard
		t.Fatal("vy sum is NaN")
	}
}

// Every app's Verify must be able to detect corruption of its result —
// otherwise the protocol correctness gate proves nothing.
func TestBLUVerifyCatchesCorruption(t *testing.T) {
	l := NewBLU(Tiny)
	m := newMachine(t, 4)
	l.Setup(m)
	m.Run(l.Worker)
	if err := l.Verify(); err != nil {
		t.Fatalf("clean run failed: %v", err)
	}
	l.a.Poke(7, l.a.Peek(7)+0.5)
	if l.Verify() == nil {
		t.Fatal("corrupted LU passed verification")
	}
}

func TestFFTVerifyCatchesCorruption(t *testing.T) {
	f := NewFFT(Tiny)
	m := newMachine(t, 4)
	f.Setup(m)
	m.Run(f.Worker)
	if err := f.Verify(); err != nil {
		t.Fatalf("clean run failed: %v", err)
	}
	f.tre.Poke(11, f.tre.Peek(11)+1e-6)
	if f.Verify() == nil {
		t.Fatal("corrupted spectrum passed verification")
	}
}

func TestBarnesVerifyCatchesCorruption(t *testing.T) {
	b := NewBarnes(Tiny)
	m := newMachine(t, 4)
	b.Setup(m)
	m.Run(b.Worker)
	if err := b.Verify(); err != nil {
		t.Fatalf("clean run failed: %v", err)
	}
	b.x.Poke(3, b.x.Peek(3)+1e-6)
	if b.Verify() == nil {
		t.Fatal("corrupted positions passed verification")
	}
}

func TestLocusVerifyCatchesUnroutedWire(t *testing.T) {
	l := NewLocus(Tiny)
	m := newMachine(t, 4)
	l.Setup(m)
	m.Run(l.Worker)
	if err := l.Verify(); err != nil {
		t.Fatalf("clean run failed: %v", err)
	}
	l.choice.Poke(5, 0) // mark a wire unrouted
	if l.Verify() == nil {
		t.Fatal("unrouted wire passed verification")
	}
}

func TestMp3dVerifyCatchesEscape(t *testing.T) {
	w := NewMp3d(Tiny)
	m := newMachine(t, 4)
	w.Setup(m)
	m.Run(w.Worker)
	if err := w.Verify(); err != nil {
		t.Fatalf("clean run failed: %v", err)
	}
	w.x.Poke(0, -50)
	if w.Verify() == nil {
		t.Fatal("escaped particle passed verification")
	}
}

// TestSynchronizedAppsAgreeAcrossProtocols: the DRF workloads must
// compute bit-identical results regardless of the protocol timing.
func TestSynchronizedAppsAgreeAcrossProtocols(t *testing.T) {
	for _, name := range []string{"gauss", "fft", "blu", "cholesky", "barnes-hut"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			var want []byte
			for _, proto := range []string{"sc", "erc", "lrc", "lrc-ext"} {
				app, err := New(name, Tiny)
				if err != nil {
					t.Fatal(err)
				}
				cfg := config.Default(8)
				m, err := Run(cfg, proto, app)
				if err != nil {
					t.Fatalf("%s: %v", proto, err)
				}
				got := m.SnapshotData()
				if want == nil {
					want = got
				} else if string(got) != string(want) {
					t.Fatalf("%s: shared memory differs from sc's", proto)
				}
			}
		})
	}
}
