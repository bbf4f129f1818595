package campaign

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/stable"
)

// S1Matrix is the S1 experiment as a campaign matrix: the canonical system
// on hardened stable storage, every seed run twice — a "shielded" arm with
// three replicas at the base fault rates, and a "defeat" arm stripped to
// one replica with bit rot multiplied until it beats the redundancy and
// forces fail-stop conversions. Seed-major order pairs the two arms under
// identical seeds, so each seed's shielded and defeat rows sit together.
func S1Matrix(seeds, frames int, faults stable.FaultProfile) Matrix {
	defeat := faults
	defeat.BitRotRate = minFloat(1, faults.BitRotRate*8)
	return Matrix{
		Name:   "s1-storage-faults",
		Seeds:  seeds,
		Frames: frames,
		Order:  SeedMajor,
		Arms: []Arm{
			{Name: "shielded", Kind: KindStorage, Replicas: 3, Faults: faults},
			{Name: "defeat", Kind: KindStorage, Replicas: 1, Faults: defeat},
		},
	}
}

// S2Matrix is the S2 experiment as a campaign matrix: the avionics mission
// over a degraded bus, sweeping the base rates through multipliers 0-3.
// Arm-major order groups rows by sweep point.
func S2Matrix(seeds, frames int, rates bus.FaultRates) Matrix {
	m := Matrix{
		Name:   "s2-bus-faults",
		Seeds:  seeds,
		Frames: frames,
		Order:  ArmMajor,
	}
	for _, mult := range []float64{0, 1, 2, 3} {
		m.Arms = append(m.Arms, Arm{
			Name: fmt.Sprintf("x%.0f", mult),
			Kind: KindBus,
			Rates: bus.FaultRates{
				Drop:      minFloat(1, rates.Drop*mult),
				Duplicate: minFloat(1, rates.Duplicate*mult),
				Delay:     minFloat(1, rates.Delay*mult),
			},
		})
	}
	return m
}

// S3Matrix is the S3 experiment as a campaign matrix: the canonical system
// with two spare processors and dynamic membership, attacked three ways —
// a "churn" arm of spare join/leave cycles (plus one unverifiable leave that
// must be rejected), an "evict" arm adding member crash/repair pairs on top
// of the churn, and a "corrupt" arm adding direct corruption of the
// committed membership record. Seed-major order pairs the arms under
// identical seeds. Every run must finish with zero SP and zero membership
// invariant violations.
func S3Matrix(seeds, frames, churn int) Matrix {
	return Matrix{
		Name:   "s3-membership-churn",
		Seeds:  seeds,
		Frames: frames,
		Order:  SeedMajor,
		Arms: []Arm{
			{Name: "churn", Kind: KindMembership, Churn: churn},
			{Name: "evict", Kind: KindMembership, Churn: churn, Evictions: 2},
			{Name: "corrupt", Kind: KindMembership, Churn: churn, CorruptRecords: 3},
		},
	}
}

// S4Matrix is the S4 experiment as a campaign matrix: the durable fleet
// host under seeded chaos storms, attacked three ways — a "calm" arm with
// panics but no host crashes (the quarantine-reproduction baseline), a
// "crashfault" arm adding host crash-restart cycles with torn manifest
// writes at each crash point, and a "retention" arm running the same storm
// with a bounded journal/trace window, proving recovery and retention
// compose. Every tenant of every storm must pass the restart-equivalence
// check.
func S4Matrix(seeds, frames, crashes int) Matrix {
	return Matrix{
		Name:   "s4-fleet-chaos",
		Seeds:  seeds,
		Frames: frames,
		Order:  SeedMajor,
		Arms: []Arm{
			{Name: "calm", Kind: KindChaos, FleetTenants: 4, TenantPanics: 1},
			{Name: "crashfault", Kind: KindChaos, FleetTenants: 4, Crashes: crashes, TenantPanics: 1, TornWrites: 3},
			{Name: "retention", Kind: KindChaos, FleetTenants: 4, Crashes: crashes, TenantPanics: 1, TornWrites: 3, RetainFrames: 48},
		},
	}
}

func minFloat(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
