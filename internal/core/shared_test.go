package core

import (
	"testing"

	"repro/internal/vehicle"
)

// TestSharedForMemoizes: the registry hands out one cache per (profile,
// dt) key, with dt <= 0 resolving to the 0.01 s default.
func TestSharedForMemoizes(t *testing.T) {
	p := vehicle.MustProfile(vehicle.ArduCopter)
	a, err := SharedFor(p, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SharedFor(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("dt=0 did not share the 0.01-default cache")
	}
	c, err := SharedFor(p, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Error("distinct control periods share one cache")
	}
	if !a.Matches(p.Name, 0.01) || !c.Matches(p.Name, 0.02) {
		t.Error("cache does not match its own key")
	}
}
