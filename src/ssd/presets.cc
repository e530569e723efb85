#include "ssd/presets.h"

#include <cassert>

namespace ssdcheck::ssd {

std::vector<SsdModel>
allModels()
{
    return {SsdModel::A, SsdModel::B, SsdModel::C, SsdModel::D,
            SsdModel::E, SsdModel::F, SsdModel::G};
}

std::string
toString(SsdModel m)
{
    switch (m) {
      case SsdModel::A: return "A";
      case SsdModel::B: return "B";
      case SsdModel::C: return "C";
      case SsdModel::D: return "D";
      case SsdModel::E: return "E";
      case SsdModel::F: return "F";
      case SsdModel::G: return "G";
    }
    return "?";
}

SsdConfig
makePreset(SsdModel m, uint64_t seedSalt)
{
    SsdConfig c;
    c.userCapacityPages = 128 * 1024; // 512 MB (scaled; see DESIGN.md)
    c.seed = 0xabcd0000ULL + static_cast<uint64_t>(m) * 977 + seedSalt;

    switch (m) {
      case SsdModel::A:
        c.name = "SSD A";
        c.bufferBytes = 248 * 1024;
        c.planesPerVolume = 32;
        c.opRatio = 0.28;
        c.jitterSigma = 0.06;
        c.hiccupProbability = 0.0015;
        break;
      case SsdModel::B:
        c.name = "SSD B";
        c.bufferBytes = 248 * 1024;
        c.planesPerVolume = 32;
        c.opRatio = 0.26;
        c.gcHighBlocks = 11;
        c.writeCpuTime = sim::microseconds(20);
        c.writeAckTime = sim::microseconds(34);
        c.readOverheadTime = sim::microseconds(28);
        c.jitterSigma = 0.07;
        c.hiccupProbability = 0.0015;
        break;
      case SsdModel::C:
        c.name = "SSD C";
        c.bufferBytes = 256 * 1024;
        c.planesPerVolume = 16;
        c.opRatio = 0.16;
        c.writeCpuTime = sim::microseconds(22);
        c.writeAckTime = sim::microseconds(40);
        c.readOverheadTime = sim::microseconds(35);
        c.gcLowBlocks = 5;
        c.gcHighBlocks = 9;
        c.jitterSigma = 0.09;
        c.hiccupProbability = 0.002;
        break;
      case SsdModel::D:
        c.name = "SSD D";
        c.volumeBits = {17};
        c.bufferBytes = 128 * 1024;
        c.planesPerVolume = 16;
        c.opRatio = 0.30;
        c.jitterSigma = 0.06;
        // The SLC cache's hidden state surfaces as frequent stalls the
        // buffer/GC models cannot see (paper SVI: secondary features).
        c.hiccupProbability = 0.006;
        c.slcCache = true;
        c.slcCapacityPages = 1024;
        c.slcCapacityVariation = 0.4;
        break;
      case SsdModel::E:
        c.name = "SSD E";
        c.volumeBits = {17, 18};
        c.bufferBytes = 128 * 1024;
        c.planesPerVolume = 16;
        c.opRatio = 0.30;
        c.jitterSigma = 0.06;
        // Four volumes plus an aggressively managed SLC cache: the
        // noisiest device of the fleet (paper Fig. 11: lowest HL acc).
        c.hiccupProbability = 0.008;
        c.slcCache = true;
        c.slcCapacityPages = 448;
        c.slcCapacityVariation = 0.55;
        break;
      case SsdModel::F:
        c.name = "SSD F";
        c.bufferBytes = 128 * 1024;
        c.bufferType = BufferType::Fore;
        c.readTriggerFlush = true;
        c.planesPerVolume = 16;
        c.opRatio = 0.24;
        c.jitterSigma = 0.07;
        c.hiccupProbability = 0.0025;
        break;
      case SsdModel::G:
        c.name = "SSD G";
        c.bufferBytes = 128 * 1024;
        c.bufferType = BufferType::Fore;
        c.readTriggerFlush = true;
        c.planesPerVolume = 16;
        c.opRatio = 0.22;
        c.writeCpuTime = sim::microseconds(20);
        c.writeAckTime = sim::microseconds(36);
        c.flushOverheadTime = sim::microseconds(200);
        c.jitterSigma = 0.08;
        c.hiccupProbability = 0.0025;
        break;
    }
    assert(c.validate().empty());
    return c;
}

std::vector<PrototypeVariant>
allPrototypeVariants()
{
    return {PrototypeVariant::Optimal, PrototypeVariant::Others,
            PrototypeVariant::WbOthers, PrototypeVariant::GcOthers,
            PrototypeVariant::All};
}

std::string
toString(PrototypeVariant v)
{
    switch (v) {
      case PrototypeVariant::Optimal: return "SSD_Optimal";
      case PrototypeVariant::Others: return "SSD_Others";
      case PrototypeVariant::WbOthers: return "SSD_WB+Others";
      case PrototypeVariant::GcOthers: return "SSD_GC+Others";
      case PrototypeVariant::All: return "SSD_All";
    }
    return "?";
}

SsdConfig
makePrototype(PrototypeVariant v, uint64_t seedSalt)
{
    // The paper's Zynq prototype: 4 channels x 4 chips x 2 planes,
    // page-level mapping, greedy GC. Its simple FTL blocks the host
    // while the buffer drains (fore), which is what makes the WB cost
    // visible on a write-only workload (Fig. 3b's additive slowdown).
    // Clean device: no hiccup noise, minimal jitter, so Fig. 3
    // isolates WB/GC exactly. 64KB buffer -> one flush per 16 writes,
    // matching the paper's 6.39% WB operation share.
    SsdConfig c;
    c.name = toString(v);
    c.userCapacityPages = 64 * 1024; // 256 MB
    c.bufferBytes = 64 * 1024;
    c.bufferType = BufferType::Fore;
    c.planesPerVolume = 32;
    c.opRatio = 0.22;
    c.gcLowBlocks = 6;
    c.gcHighBlocks = 10;
    c.jitterSigma = 0.03;
    c.hiccupProbability = 0.0;
    c.seed = 0x9127e700ULL + static_cast<uint64_t>(v) * 131 + seedSalt;

    switch (v) {
      case PrototypeVariant::Optimal:
        c.optimalMode = true;
        break;
      case PrototypeVariant::Others:
        c.wbFlushCostEnabled = false;
        c.gcCostEnabled = false;
        break;
      case PrototypeVariant::WbOthers:
        c.gcCostEnabled = false;
        break;
      case PrototypeVariant::GcOthers:
        c.wbFlushCostEnabled = false;
        break;
      case PrototypeVariant::All:
        break;
    }
    assert(c.validate().empty());
    return c;
}

SsdConfig
makeNvmBackedSsd(uint64_t seedSalt)
{
    SsdConfig c;
    c.name = "NVM-SSD";
    c.userCapacityPages = 128 * 1024;
    c.bufferBytes = 64 * 1024;
    c.planesPerVolume = 8;
    c.pagesPerBlock = 64;
    c.opRatio = 0.20;
    // PRAM-class medium: order-of-magnitude faster than NAND, but
    // the same buffered-write + GC structure (paper SVI).
    c.nandTiming.readLatency = sim::microseconds(5);
    c.nandTiming.programLatency = sim::microseconds(120);
    c.nandTiming.eraseLatency = sim::microseconds(400);
    c.nandTiming.slcProgramLatency = sim::microseconds(60);
    c.busTime = sim::microseconds(2);
    c.writeCpuTime = sim::microseconds(6);
    c.writeAckTime = sim::microseconds(12);
    c.readOverheadTime = sim::microseconds(8);
    c.bufferReadTime = sim::microseconds(6);
    c.flushOverheadTime = sim::microseconds(40);
    c.jitterSigma = 0.05;
    c.hiccupProbability = 0.001;
    c.hiccupMin = sim::microseconds(120);
    c.hiccupMax = sim::microseconds(700);
    c.seed = 0x3dc90b17ULL + seedSalt;
    assert(c.validate().empty());
    return c;
}

bool
presetByName(const std::string &name, SsdConfig *out)
{
    if (name == "nvm") {
        *out = makeNvmBackedSsd();
        return true;
    }
    if (name.size() != 1 || name[0] < 'A' || name[0] > 'G')
        return false;
    *out = makePreset(static_cast<SsdModel>(name[0] - 'A'));
    return true;
}

} // namespace ssdcheck::ssd
