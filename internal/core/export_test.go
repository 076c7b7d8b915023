package core

// Test-only exports for the external-package tests, which may import the
// operator library.

// RaceEnabled reports a -race test binary (see raceEnabled).
const RaceEnabled = raceEnabled

// ApplyElitism runs the master's elitism pass on next.
func (e *Engine[G]) ApplyElitism(next []Individual[G]) { e.applyElitism(next) }
