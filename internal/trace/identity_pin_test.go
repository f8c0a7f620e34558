package trace

import (
	"testing"

	"repro/internal/workload"
)

// TestIdentityPin freezes the archetype drawn for an untagged row and the
// domain hashed from a project label, recorded before both moved onto the
// shared internal/rng helpers.
func TestIdentityPin(t *testing.T) {
	want, _ := workload.ArchetypeByName("mixed_moderate")
	if got := profileFor(Row{ID: 7}, 2020); got != want.Profile {
		t.Errorf("profileFor(row 7, seed 2020) = %+v, want mixed_moderate", got)
	}
	if got := domainFor("CSC123"); got != 0 {
		t.Errorf(`domainFor("CSC123") = %d, want 0`, got)
	}
	if got := domainFor("bio-42"); got != 2 {
		t.Errorf(`domainFor("bio-42") = %d, want 2`, got)
	}
}
