#include "common/types.hh"

namespace gals
{

const char *
domainTag(DomainId id)
{
    static const char *const tags[kNumDomains] = {"fe", "int", "fp",
                                                  "ls"};
    int d = static_cast<int>(id);
    return d < kNumDomains ? tags[d] : "ext";
}

} // namespace gals
