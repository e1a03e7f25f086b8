package apps

import (
	"fmt"
	"math"

	"lazyrc/internal/machine"
)

// Mp3d is the wind-tunnel rarefied-airflow simulation (40000 particles,
// 10 steps in the paper): particles stream through a cell grid, their
// cell occupancy and momentum records are updated without
// synchronization (the paper's prime example of a program with data
// races whose quality of solution tolerates delayed invalidations), and
// dense cells damp the particles that cross them. The racy multi-writer
// cell records give mp3d Table 2's highest miss rate, dominated by true
// sharing and write misses.
type Mp3d struct {
	np, steps  int
	rows, cols int

	x, y, vx, vy machine.F64
	// cells is the space grid; each cell holds cellWords words — an
	// occupancy count and momentum accumulators — so a 128-byte line
	// spans four cells: some false sharing between neighboring cells,
	// but the dominant communication is true sharing on the cells
	// themselves, as in Table 2.
	cells machine.I64
	bar   *machine.Barrier

	// prevCells, allocated only on a machine with StaleDensity set, keeps
	// the densities of the previous step for the collision phase to read.
	prevCells []int64
}

// NewMp3d returns the workload at the given scale.
func NewMp3d(scale Scale) *Mp3d {
	type sz struct{ np, steps, rows, cols int }
	s := map[Scale]sz{
		Tiny:   {256, 3, 12, 24},
		Small:  {1000, 4, 16, 48},
		Medium: {4000, 6, 32, 96},
		Paper:  {40000, 10, 64, 192},
	}[scale]
	return &Mp3d{np: s.np, steps: s.steps, rows: s.rows, cols: s.cols}
}

// Name returns "mp3d".
func (w *Mp3d) Name() string { return "mp3d" }

// Setup seeds the particles flowing along +x. Each processor's chunk of
// particles starts in its own horizontal band of the tunnel, giving the
// cell updates the spatial locality the original program's particles
// have; the sharing concentrates at band boundaries and in cells that
// particles drift across, rather than uniformly over the whole grid.
func (w *Mp3d) Setup(m *machine.Machine) {
	w.x = m.AllocF64(w.np)
	w.y = m.AllocF64(w.np)
	w.vx = m.AllocF64(w.np)
	w.vy = m.AllocF64(w.np)
	w.cells = m.AllocI64(w.rows * w.cols * cellWords)
	w.bar = m.NewBarrier(m.Cfg.Procs)
	if m.Cfg.StaleDensity {
		w.prevCells = make([]int64, w.rows*w.cols)
	}
	rng := lcg(8086)
	nprocs := m.Cfg.Procs
	for i := 0; i < w.np; i++ {
		owner := i * nprocs / w.np
		band := float64(w.rows) / float64(nprocs)
		// Most particles sit near their owner's band so cell blocks are
		// shared by a handful of processors; an eighth roam the whole
		// tunnel, providing the long-range mixing the original's flow
		// develops.
		var y float64
		if i%8 == 0 {
			y = rng.f64() * float64(w.rows)
		} else {
			y = (float64(owner) + 2.5*rng.f64() - 0.75) * band
			if y < 0 {
				y = -y
			}
			if y > float64(w.rows) {
				y = 2*float64(w.rows) - y
			}
		}
		w.x.Poke(i, rng.f64()*float64(w.cols))
		w.y.Poke(i, y)
		w.vx.Poke(i, 0.5+rng.f64()) // wind along +x
		w.vy.Poke(i, (rng.f64()-0.5)*0.4)
	}
}

// cellWords is the per-cell record size: occupancy count plus x/y
// momentum accumulators and one reserved word.
const cellWords = 4

func (w *Mp3d) cellOf(x, y float64) int {
	cx := clamp(int(x), 0, w.cols-1)
	cy := clamp(int(y), 0, w.rows-1)
	return cy*w.cols + cx
}

// cellAt returns the address of field f of cell c.
func (w *Mp3d) cellAt(c, f int) machine.Addr { return w.cells.At(c*cellWords + f) }

// Worker advances this processor's particles (contiguous chunks, as in
// the original program) through the shared cell grid. The sharing comes
// from the cell tallies — unsynchronized read-modify-writes, with false
// sharing between adjacent cells on one line — and from particles near
// chunk boundaries.
func (w *Mp3d) Worker(p *machine.Proc) {
	nprocs, me := p.NProcs(), p.ID()
	lo, hi := me*w.np/nprocs, (me+1)*w.np/nprocs
	const dt = 0.4
	for s := 0; s < w.steps; s++ {
		// Reset this processor's slice of the cell grid.
		ncells := w.rows * w.cols
		clo, chi := me*ncells/nprocs, (me+1)*ncells/nprocs
		for c := clo; c < chi; c++ {
			if w.prevCells != nil {
				w.prevCells[c] = w.cells.Peek(c * cellWords)
			}
			p.WriteI64(w.cellAt(c, 0), 0)
			p.WriteI64(w.cellAt(c, 1), 0)
			p.WriteI64(w.cellAt(c, 2), 0)
		}
		p.Barrier(w.bar)

		// Move particles; bounce off the tunnel walls; recycle at the
		// outflow; tally cell occupancy without synchronization.
		for i := lo; i < hi; i++ {
			x := p.ReadF64(w.x.At(i)) + p.ReadF64(w.vx.At(i))*dt
			y := p.ReadF64(w.y.At(i)) + p.ReadF64(w.vy.At(i))*dt
			if y < 0 {
				y = -y
				p.WriteF64(w.vy.At(i), -p.ReadF64(w.vy.At(i)))
			}
			if y > float64(w.rows) {
				y = 2*float64(w.rows) - y
				p.WriteF64(w.vy.At(i), -p.ReadF64(w.vy.At(i)))
			}
			if x >= float64(w.cols) {
				x -= float64(w.cols) // wrap to the inflow
			}
			p.WriteF64(w.x.At(i), x)
			p.WriteF64(w.y.At(i), y)
			p.Compute(900) // the original's per-particle move and boundary physics
			c := w.cellOf(x, y)
			// Racy read-modify-writes of the cell record, as in the
			// original: occupancy and momentum accumulate without locks.
			p.WriteI64(w.cellAt(c, 0), p.ReadI64(w.cellAt(c, 0))+1)
			p.WriteI64(w.cellAt(c, 1), p.ReadI64(w.cellAt(c, 1))+int64(p.ReadF64(w.vx.At(i))*1024))
			p.WriteI64(w.cellAt(c, 2), p.ReadI64(w.cellAt(c, 2))+int64(p.ReadF64(w.vy.At(i))*1024))
		}
		p.Barrier(w.bar)

		// Collisions: particles in dense cells get damped. Under the
		// stale-read emulation the density is the previous step's value,
		// mimicking lazily propagated data.
		dense := int64(2 * w.np / (w.rows * w.cols))
		for i := lo; i < hi; i++ {
			c := w.cellOf(p.ReadF64(w.x.At(i)), p.ReadF64(w.y.At(i)))
			var occ int64
			if w.prevCells != nil {
				occ = w.prevCells[c]
				p.Compute(1)
			} else {
				occ = p.ReadI64(w.cellAt(c, 0))
			}
			p.Compute(450) // collision-candidate selection arithmetic
			if occ > dense {
				p.WriteF64(w.vx.At(i), p.ReadF64(w.vx.At(i))*0.95)
				p.WriteF64(w.vy.At(i), p.ReadF64(w.vy.At(i))*0.9)
				p.Compute(150)
			}
		}
		p.Barrier(w.bar)
	}
}

// Answer returns the cumulative velocity vector over all particles, X
// then Y — the paper's §4.2 quality-of-solution metric.
func (w *Mp3d) Answer() []float64 {
	var sx, sy float64
	for i := 0; i < w.np; i++ {
		sx += w.vx.Peek(i)
		sy += w.vy.Peek(i)
	}
	return []float64{sx, sy}
}

// Verify performs structural checks: the races make exact trajectories
// protocol-dependent (by design — §4.2 measures exactly this), so the
// checks are physical sanity, not bit equality.
func (w *Mp3d) Verify() error {
	for i := 0; i < w.np; i++ {
		x, y := w.x.Peek(i), w.y.Peek(i)
		if math.IsNaN(x) || math.IsNaN(y) || x < -1e-9 || x > float64(w.cols)+1e-9 ||
			y < -1e-9 || y > float64(w.rows)+1e-9 {
			return fmt.Errorf("mp3d: particle %d escaped to (%g,%g)", i, x, y)
		}
		if vx := w.vx.Peek(i); vx <= 0 || vx > 2 {
			return fmt.Errorf("mp3d: particle %d has implausible vx %g", i, vx)
		}
	}
	var total int64
	for c := 0; c < w.rows*w.cols; c++ {
		v := w.cells.Peek(c * cellWords)
		if v < 0 {
			return fmt.Errorf("mp3d: negative occupancy in cell %d", c)
		}
		total += v
	}
	// The racy tally can lose updates but not wildly.
	if total < int64(w.np)*7/10 || total > int64(w.np) {
		return fmt.Errorf("mp3d: cell tally %d outside [%d, %d]", total, int64(w.np)*7/10, w.np)
	}
	return nil
}
