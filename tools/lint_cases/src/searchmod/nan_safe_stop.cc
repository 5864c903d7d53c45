// expect: clean
// The NaN-safe spellings of the same stop tests, plus lookalikes that must
// not fire: a `<=` whose right-hand side is not min_gain (even when
// min_gain appears later on the line), and min_gain on the left.
namespace dbs {

struct Options {
  double min_gain = 1e-12;
};

double next_gain(double g);

int improve(const Options& options, double gain, int limit) {
  int moves = 0;
  while (moves <= limit) {
    if (!(gain > options.min_gain)) break;
    gain = next_gain(gain);
    ++moves;
  }
  return moves;
}

int replicate(const Options* options, double delta) {
  int copies = 0;
  while (true) {
    if (!(-delta >= options->min_gain)) break;
    if (copies <= 3 && delta < options->min_gain) delta = next_gain(delta);
    delta = next_gain(delta);
    ++copies;
  }
  return copies;
}

bool below_floor(const Options& options, double gain) {
  return options.min_gain >= gain || gain <= 0.0;
}

}  // namespace dbs
