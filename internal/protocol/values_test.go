package protocol

import (
	"encoding/binary"
	"testing"

	"lazyrc/internal/config"
)

// TestValuesSemantics: a load forwards from its own staged store, then
// its copy, then home memory; a commit lands the stage in the copy (made
// from home when there is none) and a re-commit is a no-op; a home merge
// takes only the masked words; a fill into a frame displaces the copy of
// the block that held it.
func TestValuesSemantics(t *testing.T) {
	cfg := config.Config{Procs: 2, LineSize: 2 * config.WordSize, CacheSize: 4 * 2 * config.WordSize}
	v := NewValues(cfg)
	mem := make([]byte, 12*cfg.LineSize)
	binary.LittleEndian.PutUint64(mem[5*cfg.LineSize:], 9) // block 5, word 0
	v.Seed(mem)
	read := func(node int, block uint64, word int, want uint64, what string) {
		t.Helper()
		if got := v.Read(node, block, word); got != want {
			t.Fatalf("%s: node %d reads block %d word %d = %d, want %d", what, node, block, word, got, want)
		}
	}
	read(0, 5, 0, 9, "seeded home")
	read(0, 5, 1, 0, "fresh word")
	v.Stage(0, 5, 1, 42)
	read(0, 5, 1, 42, "store-to-load forwarding")
	read(1, 5, 1, 0, "staged store leaked to another node")
	v.commit(0, 5, 1)
	read(0, 5, 1, 42, "committed value")
	read(0, 5, 0, 9, "copy made from home")
	v.commit(0, 5, 1)
	read(0, 5, 1, 42, "re-commit")
	read(1, 5, 1, 0, "commit reached home")

	// A write-through merges word 1 only; node 1's fill then sees it.
	v.mergeHome(5, []uint64{7, 42}, 0b10)
	v.fill(1, 5, v.homeLine(5))
	read(1, 5, 1, 42, "fill after merge")
	read(1, 5, 0, 9, "unmasked word merged")

	// Block 9 shares block 5's frame (4 frames): node 1's copy of 5 goes.
	v.fill(1, 9, []uint64{3, 4})
	read(1, 9, 1, 4, "filled copy")
	v.mergeHome(5, []uint64{1, 2}, 0b11)
	read(1, 5, 0, 1, "displaced copy")

	v.reset()
	read(0, 5, 1, 2, "reset copy")
}
