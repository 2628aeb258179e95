// Good twin: RNG streams forked from the config seed.
#include "util/random.hpp"
namespace fx {
double draw(hls::Rng& parent) {
  hls::Rng stream = parent.fork();  // workload.draw
  return stream.next_double();
}
}  // namespace fx
