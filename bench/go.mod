// The benchmark is a module of its own so that it carries its own build
// file; the import path keeps the progressdb/ prefix, which is what lets
// it import progressdb/internal/... from the parent module.
module progressdb/bench

go 1.22

require progressdb v0.0.0

replace progressdb => ../
