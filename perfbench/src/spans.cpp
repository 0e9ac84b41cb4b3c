#include "spans.hpp"

#include <cstdio>
#include <fstream>

namespace perfbench {

namespace {

double since(Clock::time_point epoch) {
    return std::chrono::duration<double>(Clock::now() - epoch).count();
}

}  // namespace

int SpanRecorder::open(const std::string& name, int scenario) {
    SpanRecord s;
    s.name = name;
    s.start_s = since(epoch_);
    s.parent = open_.empty() ? -1 : open_.back();
    s.scenario = scenario;
    spans_.push_back(std::move(s));
    const int index = static_cast<int>(spans_.size()) - 1;
    open_.push_back(index);
    return index;
}

void SpanRecorder::close(int index) {
    SpanRecord& s = spans_[static_cast<std::size_t>(index)];
    s.end_s = since(epoch_);
    // Spans nest strictly (RAII), so the closing span is the innermost.
    open_.pop_back();
    if (s.parent >= 0) {
        spans_[static_cast<std::size_t>(s.parent)].child_s += s.end_s - s.start_s;
    }
}

void SpanRecorder::attribute(int index, const std::string& layer,
                             double seconds) {
    SpanRecord& s = spans_[static_cast<std::size_t>(index)];
    s.external_layer = layer;
    s.external_s += seconds;
}

std::string SpanRecorder::layer_of(const std::string& span_name) {
    if (span_name.rfind("stage.", 0) == 0) return "flow";
    return span_name.substr(0, span_name.find('.'));
}

bool SpanRecorder::write_json(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord& s = spans_[i];
        char line[512];
        std::snprintf(line, sizeof line,
                      "{\"name\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f, "
                      "\"parent\": %d, \"scenario\": %d, \"%s_s\": %.9f}%s\n",
                      s.name.c_str(), s.start_s, s.end_s, s.parent, s.scenario,
                      s.external_layer.empty() ? "external" : s.external_layer.c_str(),
                      s.external_s, i + 1 < spans_.size() ? "," : "");
        out << line;
    }
    out << "]\n";
    return static_cast<bool>(out);
}

}  // namespace perfbench
