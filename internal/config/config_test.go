package config

import (
	"testing"
	"testing/quick"
)

func TestDefaultMatchesTable1(t *testing.T) {
	c := Default(64)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		name string
		got  any
		want any
	}{
		{"LineSize", c.LineSize, 128},
		{"CacheSize", c.CacheSize, 128 << 10},
		{"MemSetup", c.MemSetup, uint64(20)},
		{"MemBW", c.MemBW, 2},
		{"BusBW", c.BusBW, 2},
		{"NetBW", c.NetBW, 2},
		{"SwitchLat", c.SwitchLat, uint64(2)},
		{"WireLat", c.WireLat, uint64(1)},
		{"NoticeCost", c.NoticeCost, uint64(4)},
		{"DirCostLRC", c.DirCostLRC, uint64(25)},
		{"DirCostERC", c.DirCostERC, uint64(15)},
		{"WBEntries", c.WBEntries, 4},
		{"CBEntries", c.CBEntries, 16},
	}
	for _, ck := range checks {
		if ck.got != ck.want {
			t.Errorf("%s = %v, want %v", ck.name, ck.got, ck.want)
		}
	}
}

func TestFuturePreset(t *testing.T) {
	c := Future(64)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.MemSetup != 40 || c.MemBW != 4 || c.NetBW != 4 || c.LineSize != 256 {
		t.Fatalf("future preset = %+v", c)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Procs = 0 },
		func(c *Config) { c.LineSize = 12 },
		func(c *Config) { c.CacheSize = c.LineSize - 1 },
		func(c *Config) { c.PageSize = c.LineSize / 2 },
		func(c *Config) { c.MemBW = 0 },
		func(c *Config) { c.NetBW = 0 },
		func(c *Config) { c.WBEntries = 0 },
		func(c *Config) { c.CBEntries = 0 },
		func(c *Config) { c.Quantum = 0 },
	}
	for i, mut := range bad {
		c := Default(16)
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: bad config validated: %+v", i, c)
		}
	}
}

func TestMeshDims(t *testing.T) {
	cases := []struct{ n, w, h int }{
		{1, 1, 1}, {2, 2, 1}, {4, 2, 2}, {8, 4, 2},
		{16, 4, 4}, {32, 8, 4}, {64, 8, 8}, {6, 3, 2},
	}
	for _, tc := range cases {
		w, h := MeshDims(tc.n)
		if w != tc.w || h != tc.h {
			t.Errorf("MeshDims(%d) = %d×%d, want %d×%d", tc.n, w, h, tc.w, tc.h)
		}
	}
}

func TestMeshDimsProperty(t *testing.T) {
	f := func(n uint8) bool {
		nn := int(n)%256 + 1
		w, h := MeshDims(nn)
		return w*h == nn && w >= h && h >= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDerivedQuantities(t *testing.T) {
	c := Default(64)
	if c.WordsPerLine() != 16 {
		t.Errorf("WordsPerLine = %d, want 16", c.WordsPerLine())
	}
	if c.Lines() != 1024 {
		t.Errorf("Lines = %d, want 1024", c.Lines())
	}
}

func TestPresetNames(t *testing.T) {
	for _, name := range Presets() {
		c, err := Preset(name, 16)
		if err != nil {
			t.Fatalf("preset %q: %v", name, err)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("preset %q invalid: %v", name, err)
		}
	}
	if c, err := Preset("default", 16); err != nil || c != Default(16) {
		t.Fatalf("default preset: %+v, %v", c, err)
	}
	if _, err := Preset("", 16); err == nil {
		t.Fatal("the empty name is a second name for the default machine")
	}
	if c, err := Preset("future", 16); err != nil || c != Future(16) {
		t.Fatalf("future preset: %+v, %v", c, err)
	}
	if _, err := Preset("nope", 16); err == nil {
		t.Fatal("unknown preset accepted")
	}
}
