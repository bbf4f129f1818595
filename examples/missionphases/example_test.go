package main

// Example pins the example's whole printed output, so the default test run
// fails if the example stops building or its result changes.
func Example() {
	main()
	// Output:
	// mission phases drove these assured reconfigurations (no failures involved):
	//   [100,103] takeoff  -> cruise   (4 frames)
	//   [400,404] cruise   -> landing  (5 frames)
	//   [500,503] landing  -> cruise   (4 frames)
	//   [700,704] cruise   -> landing  (5 frames)
	// final configuration: landing
	// SP1-SP4: all properties hold — mode changes get the same assurance as failures
}
