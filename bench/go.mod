// The benchmark is a module of its own so the repository's build files
// stay untouched; the replace line makes it measure this checkout.
module repro/bench

go 1.23

require repro v0.0.0

replace repro => ../
