// The service workloads' knowledge corpus, generated from the seed alone.
//
// IOR objects are built so that their mean write bandwidth is exactly linear
// in the features the usage layer derives from the command (log2 transfer,
// log2 block, log2 segments, tasks, file-per-process, MPI-IO and HDF5
// one-hots). The predict endpoint's regression must then recover the model,
// which makes an oracle that does not depend on the program's own fit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/knowledge/io500_knowledge.hpp"
#include "src/knowledge/knowledge.hpp"

namespace perfbench {

/// One IOR configuration from the corpus grid. Sizes are powers of two so
/// the log2 features are exact integers.
struct IorShape {
  int log2_transfer = 16;  // 64 KiB .. 2 MiB
  int log2_block = 22;     // 4 MiB .. 16 MiB
  int log2_segments = 0;   // 1 .. 8
  int tasks = 8;           // 8, 16, 32, 64
  bool file_per_process = false;
  int api = 0;             // 0 POSIX, 1 MPIIO, 2 HDF5

  std::string command(const std::string& test_file) const;
  /// Mean write bandwidth in MiB/s under the corpus model.
  double model_write_mib() const;
};

/// A shape drawn from the grid by (seed, stream).
IorShape draw_shape(std::uint64_t seed, std::uint64_t stream);
/// Lowest and highest model bandwidth over the whole grid.
double model_min_mib();
double model_max_mib();

/// An IOR object of the given shape (used for stores during a run).
iokc::knowledge::Knowledge make_ior_knowledge(std::uint64_t seed,
                                              std::uint64_t index,
                                              const IorShape& shape);

struct Corpus {
  std::vector<iokc::knowledge::Knowledge> knowledge;
  std::vector<iokc::knowledge::Io500Knowledge> io500;
};

/// `knowledge_objects` objects, of which 8 in 10 are IOR and the rest
/// mdtest and HACC-IO, plus `io500_objects` IO500 runs; deterministic in the
/// seed.
Corpus make_corpus(std::uint64_t seed, std::size_t knowledge_objects,
                   std::size_t io500_objects);

/// Geometric mean, computed here rather than by the program under test.
double geometric_mean(const std::vector<double>& values);

}  // namespace perfbench
