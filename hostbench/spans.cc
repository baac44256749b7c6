#include "spans.hh"

#include <cassert>
#include <fstream>

namespace hostbench {

int
SpanLog::open(const char *name, std::uint64_t call)
{
    if (!_enabled)
        return -1;
    Span s;
    s.name = name;
    s.startNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - _origin)
                    .count();
    s.parent = _open.empty() ? -1 : _open.back();
    s.call = call;
    _spans.push_back(s);
    _open.push_back(static_cast<int>(_spans.size() - 1));
    return _open.back();
}

void
SpanLog::close(int id)
{
    if (id < 0)
        return;
    assert(!_open.empty() && _open.back() == id);
    _spans[static_cast<std::size_t>(id)].endNs =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - _origin)
            .count();
    _open.pop_back();
}

LayerTimes
SpanLog::selfMs() const
{
    std::vector<std::int64_t> self(_spans.size());
    for (std::size_t i = 0; i < _spans.size(); ++i)
        self[i] = _spans[i].endNs - _spans[i].startNs;
    for (const Span &s : _spans)
        if (s.parent >= 0)
            self[static_cast<std::size_t>(s.parent)] -= s.endNs - s.startNs;
    LayerTimes out;
    for (std::size_t i = 0; i < _spans.size(); ++i)
        out[_spans[i].call][_spans[i].name] += self[i] * 1e-6;
    return out;
}

LayerTimes
SpanLog::totalMs() const
{
    LayerTimes out;
    for (const Span &s : _spans)
        out[s.call][s.name] += (s.endNs - s.startNs) * 1e-6;
    return out;
}

bool
SpanLog::write(const std::string &path) const
{
    std::ofstream f(path);
    f << "id\tparent\tcall\tname\tstart_ns\tend_ns\n";
    for (std::size_t i = 0; i < _spans.size(); ++i) {
        const Span &s = _spans[i];
        f << i << '\t' << s.parent << '\t' << s.call << '\t' << s.name
          << '\t' << s.startNs << '\t' << s.endNs << '\n';
    }
    return static_cast<bool>(f);
}

} // namespace hostbench
