package lift

// Test-only exports for the external lift_test package, which can import
// the packages built on top of lift (matching, core, engines).

// LegacyLineGraph is the frozen map-based line lift (line_legacy_test.go).
var LegacyLineGraph = legacyLineGraph

// HostSuite is the small host-graph suite of the lift tests.
var HostSuite = hostSuite
