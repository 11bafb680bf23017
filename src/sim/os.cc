#include "os.hh"

#include "sim/machine.hh"
#include "support/logging.hh"

namespace shift
{

namespace
{

void
appendBytes(std::string &sink, const uint8_t *bytes, uint64_t n)
{
    sink.append(reinterpret_cast<const char *>(bytes), n);
}

void
appendBytes(std::vector<uint8_t> &sink, const uint8_t *bytes, uint64_t n)
{
    sink.insert(sink.end(), bytes, bytes + n);
}

} // namespace

void
Os::addFile(const std::string &path, std::vector<uint8_t> bytes)
{
    files_[path] = std::make_shared<std::vector<uint8_t>>(std::move(bytes));
}

void
Os::addFile(const std::string &path, const std::string &text)
{
    files_[path] =
        std::make_shared<std::vector<uint8_t>>(text.begin(), text.end());
}

bool
Os::hasFile(const std::string &path) const
{
    return files_.count(path) != 0;
}

const std::vector<uint8_t> &
Os::fileBytes(const std::string &path) const
{
    auto it = files_.find(path);
    if (it == files_.end())
        SHIFT_FATAL("no simulated file '%s'", path.c_str());
    return *it->second;
}

void
Os::queueConnection(std::string request)
{
    Connection conn;
    conn.request = std::move(request);
    pending_.push_back(std::move(conn));
}

void
Os::chargeIo(Machine &m, uint64_t base, uint64_t bytes)
{
    uint64_t perByte = bytes * costs_.ioPerByteNum / costs_.ioPerByteDen;
    m.addOsCycles(base + perByte);
}

Os::FdEntry *
Os::lookup(int64_t fd)
{
    // fd 0..2 are reserved; 1 is the captured stdout.
    if (fd < 3)
        return nullptr;
    size_t index = static_cast<size_t>(fd - 3);
    if (index >= fds_.size() || !fds_[index].open)
        return nullptr;
    return &fds_[index];
}

int64_t
Os::openFd(Machine &m, const std::string &path, int64_t flags)
{
    m.addOsCycles(costs_.open);
    bool writable = flags == kWriteCreate;
    if (!writable && !files_.count(path))
        return -1;
    if (writable)
        files_[path] = std::make_shared<std::vector<uint8_t>>();
    FdEntry entry;
    entry.kind = FdKind::File;
    entry.path = path;
    entry.writable = writable;
    entry.open = true;
    fds_.push_back(entry);
    return static_cast<int64_t>(fds_.size() - 1) + 3;
}

int64_t
Os::readFd(Machine &m, int64_t fd, uint64_t buf, uint64_t len)
{
    FdEntry *entry = lookup(fd);
    if (!entry)
        return -1;

    const uint8_t *src = nullptr;
    uint64_t avail = 0;
    std::string channel;
    if (entry->kind == FdKind::File) {
        const std::vector<uint8_t> &bytes = *files_.at(entry->path);
        if (entry->offset >= bytes.size()) {
            chargeIo(m, costs_.ioBase, 0);
            return 0;
        }
        src = bytes.data() + entry->offset;
        avail = bytes.size() - entry->offset;
        channel = "file";
    } else if (entry->kind == FdKind::Socket) {
        Connection &conn = active_[entry->connIndex];
        if (conn.consumed >= conn.request.size()) {
            chargeIo(m, costs_.ioBase, 0);
            return 0;
        }
        src = reinterpret_cast<const uint8_t *>(conn.request.data()) +
              conn.consumed;
        avail = conn.request.size() - conn.consumed;
        channel = "network";
    } else {
        return -1;
    }

    uint64_t n = std::min(len, avail);
    if (m.memory().writeBytes(buf, src, n) != MemFault::None)
        return -1;
    entry->offset += (entry->kind == FdKind::File) ? n : 0;
    if (entry->kind == FdKind::Socket)
        active_[entry->connIndex].consumed += n;
    chargeIo(m, costs_.ioBase, n);
    if (inputHook_ && n > 0)
        inputHook_(m, buf, n, channel);
    return static_cast<int64_t>(n);
}

template <typename Append>
int64_t
Os::writeTo(Machine &m, int64_t fd, uint64_t len, Append &&append)
{
    bool ok = false;
    if (fd == 1) {
        ok = append(stdout_);
    } else {
        FdEntry *entry = lookup(fd);
        if (!entry)
            return -1;
        if (entry->kind == FdKind::File) {
            if (!entry->writable)
                return -1;
            ok = append(writableFile(entry->path));
        } else if (entry->kind == FdKind::Socket) {
            ok = append(responses_[active_[entry->connIndex].responseIndex]);
        }
    }
    if (!ok)
        return -1;
    chargeIo(m, costs_.ioBase, len);
    return static_cast<int64_t>(len);
}

int64_t
Os::writeFd(Machine &m, int64_t fd, uint64_t buf, uint64_t len)
{
    return writeTo(m, fd, len, [&](auto &sink) {
        return m.memory().readChunks(
                   buf, len, [&](const uint8_t *bytes, uint64_t n) {
                       appendBytes(sink, bytes, n);
                   }) == MemFault::None;
    });
}

int64_t
Os::writeFd(Machine &m, int64_t fd, std::string_view bytes)
{
    return writeTo(m, fd, bytes.size(), [&](auto &sink) {
        appendBytes(sink, reinterpret_cast<const uint8_t *>(bytes.data()),
                    bytes.size());
        return true;
    });
}

std::vector<uint8_t> &
Os::writableFile(const std::string &path)
{
    FileBody &body = files_.at(path);
    if (body.use_count() > 1)
        body = std::make_shared<std::vector<uint8_t>>(*body);
    return *body;
}

int64_t
Os::closeFd(Machine &m, int64_t fd)
{
    m.addOsCycles(costs_.close);
    FdEntry *entry = lookup(fd);
    if (!entry)
        return -1;
    entry->open = false;
    return 0;
}

int64_t
Os::acceptFd(Machine &m)
{
    m.addOsCycles(costs_.accept);
    if (pending_.empty())
        return -1;
    Connection conn = std::move(pending_.front());
    pending_.pop_front();
    conn.responseIndex = responses_.size();
    responses_.emplace_back();
    active_.push_back(std::move(conn));

    FdEntry entry;
    entry.kind = FdKind::Socket;
    entry.connIndex = active_.size() - 1;
    entry.open = true;
    entry.writable = true;
    fds_.push_back(entry);
    return static_cast<int64_t>(fds_.size() - 1) + 3;
}

int64_t
Os::fileSize(const std::string &path) const
{
    auto it = files_.find(path);
    if (it == files_.end())
        return -1;
    return static_cast<int64_t>(it->second->size());
}

} // namespace shift
