#include "common/types.hh"

namespace gals
{

const char *
domainName(DomainId id)
{
    switch (id) {
      case DomainId::FrontEnd:      return "front-end";
      case DomainId::Integer:       return "integer";
      case DomainId::FloatingPoint: return "floating-point";
      case DomainId::LoadStore:     return "load-store";
      case DomainId::External:      return "external";
      default:                      return "unknown";
    }
}

const char *
domainTag(DomainId id)
{
    static const char *const tags[kNumDomains] = {"fe", "int", "fp",
                                                  "ls"};
    int d = static_cast<int>(id);
    return d < kNumDomains ? tags[d] : "ext";
}

} // namespace gals
