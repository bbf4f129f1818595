package main

// Example pins the example's whole printed output, so the default test run
// fails if the example stops building or its result changes.
func Example() {
	main()
	// Output:
	// final configuration: fallback
	//
	// SCRAM protocol events:
	//   f50   signal     (env-monitor reports degraded)
	//   f50   trigger    fallback (normal -> fallback, window [50,53])
	//   f50   halt       fallback (halt commanded for frames [51,51])
	//   f50   prepare    fallback (prepare(fallback) scheduled for frames [52,52])
	//   f50   initialize fallback (initialize scheduled for frames [53,53])
	//   f53   complete   fallback (window [50,53], 4 frames)
	//
	// reconfigurations found in the trace:
	//   [50,53] normal -> fallback (4 frames)
	//
	// SP1-SP4: all formal reconfiguration properties hold
}
