module garfield/benchmark

go 1.22

require garfield v0.0.0

replace garfield => ../
