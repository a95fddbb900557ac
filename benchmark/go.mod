module ddsim/benchmark

go 1.22

require ddsim v0.0.0

replace ddsim => ../
