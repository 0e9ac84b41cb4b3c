#pragma once
// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded only from the benchmark's own files, around the calls
// it makes into each library layer: name, start, end, parent span and
// scenario id.  Nothing is written while a scenario runs; the recorder is
// dumped to a JSON file when the benchmark exits.  A layer's self time is
// its spans' durations minus the part covered by their child spans.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct SpanRecord {
    std::string name;
    double start_s = 0.0;  ///< seconds since the recorder's epoch
    double end_s = 0.0;
    int parent = -1;  ///< index into the recorder, -1 for a root
    int scenario = -1;
    double child_s = 0.0;  ///< time covered by direct children
    /// Time inside this span reported by a library result struct instead
    /// of a child span (SAT solve time from sat::Solver::Stats), with the
    /// layer it belongs to.
    double external_s = 0.0;
    std::string external_layer;
};

class SpanRecorder {
public:
    SpanRecorder() : epoch_(Clock::now()) {}

    /// Opens a span under the currently open one; returns its index.
    int open(const std::string& name, int scenario);
    void close(int index);

    /// Attributes `seconds` measured inside span `index` to `layer`.
    void attribute(int index, const std::string& layer, double seconds);

    const std::vector<SpanRecord>& spans() const { return spans_; }

    /// Writes every span as a JSON array of objects.
    bool write_json(const std::string& path) const;

    /// A span's layer: its name up to the first '.'; "stage.*" spans are
    /// the flow layer (stage glue and validation replay).
    static std::string layer_of(const std::string& span_name);

private:
    Clock::time_point epoch_;
    std::vector<SpanRecord> spans_;
    std::vector<int> open_;
};

/// RAII span; a null recorder makes it a no-op (the untraced path).
class Span {
public:
    Span(SpanRecorder* recorder, const std::string& name, int scenario)
        : recorder_(recorder),
          index_(recorder ? recorder->open(name, scenario) : -1) {}
    ~Span() {
        if (recorder_) recorder_->close(index_);
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    int index() const { return index_; }

private:
    SpanRecorder* recorder_;
    int index_;
};

}  // namespace perfbench
