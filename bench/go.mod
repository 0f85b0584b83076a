// The benchmark is its own module so that it builds from its own
// directory and stays out of the parent module's ./... patterns. Its
// import path sits under repro/, which is what lets it import the
// parent's internal packages.
module repro/bench

go 1.22

require repro v0.0.0

replace repro => ../
