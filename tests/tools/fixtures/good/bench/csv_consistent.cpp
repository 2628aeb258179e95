// Good twin: main() honors HLS_TIME_SCALE through scaled_options
// (bench-time-scale).
namespace bench {
struct Options;
Options scaled_options();
}  // namespace bench

int main() {
  return 0;
}
