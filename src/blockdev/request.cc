#include "blockdev/request.h"

namespace ssdcheck::blockdev {

std::string
toString(IoType t)
{
    switch (t) {
      case IoType::Read:
        return "read";
      case IoType::Write:
        return "write";
      case IoType::Trim:
        return "trim";
    }
    return "?";
}

std::string
toString(IoStatus s)
{
    switch (s) {
      case IoStatus::Ok:
        return "ok";
      case IoStatus::MediaError:
        return "media-error";
      case IoStatus::Timeout:
        return "timeout";
      case IoStatus::DeviceFault:
        return "device-fault";
      case IoStatus::Rejected:
        return "rejected";
      case IoStatus::Expired:
        return "expired";
    }
    return "?";
}

IoRequest
makeRead4k(uint64_t pageIndex)
{
    return IoRequest{pageIndex * kSectorsPerPage, kSectorsPerPage,
                     IoType::Read};
}

IoRequest
makeWrite4k(uint64_t pageIndex)
{
    return IoRequest{pageIndex * kSectorsPerPage, kSectorsPerPage,
                     IoType::Write};
}

} // namespace ssdcheck::blockdev
