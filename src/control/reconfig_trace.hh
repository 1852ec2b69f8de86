/**
 * @file
 * Reconfiguration event log. The phase-adaptive processor records
 * every structure change here; repro's Figure 7 section replays the
 * log as a configuration-versus-instructions trace.
 */

#ifndef GALS_CONTROL_RECONFIG_TRACE_HH
#define GALS_CONTROL_RECONFIG_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace gals
{

/** Which adaptive structure changed. */
enum class Structure : std::uint8_t
{
    ICache,
    DCachePair,
    IntIssueQueue,
    FpIssueQueue,
};

/** Printable structure name. */
const char *structureName(Structure s);

/** One reconfiguration event. */
struct ReconfigEvent
{
    std::uint64_t committed_instrs;
    Structure structure;
    int from_index;
    int to_index;

    bool operator==(const ReconfigEvent &) const = default;
};

/** Append-only log of reconfiguration events. */
class ReconfigTrace
{
  public:
    void
    record(std::uint64_t committed, Structure s, int from, int to)
    {
        events_.push_back(ReconfigEvent{committed, s, from, to});
    }

    const std::vector<ReconfigEvent> &events() const { return events_; }

    /** Events for one structure only. */
    std::vector<ReconfigEvent> eventsFor(Structure s) const;

    /** Count of events for one structure. */
    std::uint64_t countFor(Structure s) const;

    void clear() { events_.clear(); }

    bool operator==(const ReconfigTrace &) const = default;

  private:
    std::vector<ReconfigEvent> events_;
};

} // namespace gals

#endif // GALS_CONTROL_RECONFIG_TRACE_HH
