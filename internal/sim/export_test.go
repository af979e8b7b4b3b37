package sim

// Test fixtures shared with the package sim_test differential suites,
// which live outside the package so they can import the simref oracle
// (simref imports sim).
var (
	Pipeline3 = pipeline3
	MCSetup   = mcSetup
)
