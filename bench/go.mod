// The benchmark is a module of its own so that it builds, tests and
// vets apart from the program it measures. Its path sits under
// "repro/", which is what lets it import repro/internal/...; the
// replace points at the enclosing checkout.
module repro/bench

go 1.24

require repro v0.0.0

replace repro => ../
