// expect: nan-unsafe-termination
// Both stop-test shapes that a NaN gain slips past: `gain <= min_gain` and
// `delta > -min_gain` are false for NaN, so these loops would never end.
namespace dbs {

struct Options {
  double min_gain = 1e-12;
};

double next_gain(double g);

int improve(const Options& options, double gain) {
  int moves = 0;
  while (true) {
    if (gain <= options.min_gain) break;
    gain = next_gain(gain);
    ++moves;
  }
  return moves;
}

int replicate(const Options* options, double delta) {
  int copies = 0;
  while (true) {
    if (delta > -options->min_gain) break;
    delta = next_gain(delta);
    ++copies;
  }
  return copies;
}

}  // namespace dbs
