package main

// Example pins the example's whole printed output, so the default test run
// fails if the example stops building or its result changes.
func Example() {
	main()
	// Output:
	// equipment required (full service = 2 procs, safe service = 1 proc):
	//   failures   masking   reconfiguration   saved
	//          0         2                 1       1
	//          1         3                 2       1
	//          2         4                 3       1
	//          3         5                 4       1
	//          4         6                 5       1
	//
	// masking design (4 processors): 996/1000 work units completed, 2 recoveries, 4 frames lost, full service throughout
	//
	// reconfigurable design (2 processors): service over 1000 frames:
	//   full-service       204 frames
	//   reduced-service    399 frames
	//   minimal-service    397 frames
	//   restricted (reconfiguring): 7 frames
	//
	// SP1-SP4: every degradation was an assured reconfiguration
	//
	// tradeoff: masking spends 2 extra processors to preserve full service;
	// reconfiguration preserves assured safe service with no excess equipment
}
