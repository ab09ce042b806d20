package selectivity

// Internals the external test package uses.

var BruteForceGsel = bruteForceGsel
