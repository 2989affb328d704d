package sched

// The test helpers package sched_test shares with the package's own tests.
var (
	FuzzSchemes    = fuzzSchemes
	SchedulesEqual = schedulesEqual
	ClosureMapping = closureMapping
)
