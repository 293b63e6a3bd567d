/**
 * @file
 * Direct unit tests for the MapleQueue ring buffer: slot reservation,
 * out-of-order fills re-ordered by slot index, wraparound, reconfiguration
 * and the wait-list wake-ups the pipelines rely on.
 */
#include <gtest/gtest.h>

#include "core/maple_queue.hpp"
#include "sim/random.hpp"

using namespace maple;
using core::MapleQueue;

TEST(MapleQueue, StartsUnconfigured)
{
    MapleQueue q;
    EXPECT_FALSE(q.configured());
    EXPECT_FALSE(q.headValid());
    q.configure(8, 4);
    EXPECT_TRUE(q.configured());
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.capacity(), 8u);
    EXPECT_EQ(q.entryBytes(), 4u);
}

TEST(MapleQueue, RejectsBadGeometry)
{
    MapleQueue q;
    EXPECT_THROW(q.configure(0, 4), std::logic_error);
    EXPECT_THROW(q.configure(8, 3), std::logic_error);
    EXPECT_THROW(q.configure(8, 16), std::logic_error);
}

TEST(MapleQueue, InOrderFillAndPop)
{
    MapleQueue q;
    q.configure(4, 8);
    for (std::uint64_t i = 0; i < 4; ++i) {
        unsigned slot = q.reserveSlot();
        q.fillSlot(slot, 100 + i);
    }
    EXPECT_TRUE(q.full());
    for (std::uint64_t i = 0; i < 4; ++i) {
        ASSERT_TRUE(q.headValid());
        EXPECT_EQ(q.pop(), 100 + i);
    }
    EXPECT_TRUE(q.empty());
}

TEST(MapleQueue, OutOfOrderFillsPopInReservationOrder)
{
    MapleQueue q;
    q.configure(4, 8);
    unsigned s0 = q.reserveSlot();
    unsigned s1 = q.reserveSlot();
    unsigned s2 = q.reserveSlot();
    EXPECT_FALSE(q.headValid()) << "nothing filled yet";
    q.fillSlot(s2, 22);  // memory responses arrive out of order
    q.fillSlot(s1, 11);
    EXPECT_FALSE(q.headValid()) << "head slot still outstanding";
    q.fillSlot(s0, 0);
    EXPECT_TRUE(q.headValid(3));
    EXPECT_EQ(q.pop(), 0u);
    EXPECT_EQ(q.pop(), 11u);
    EXPECT_EQ(q.pop(), 22u);
}

TEST(MapleQueue, WrapAroundKeepsOrderAcrossManyLaps)
{
    MapleQueue q;
    q.configure(3, 4);  // deliberately not a power of two
    std::uint64_t next_fill = 0, next_expect = 0;
    sim::Rng rng(9);
    for (int step = 0; step < 1000; ++step) {
        if (!q.full() && (q.empty() || rng.below(2) == 0)) {
            q.fillSlot(q.reserveSlot(), next_fill++);
        } else {
            ASSERT_TRUE(q.headValid());
            ASSERT_EQ(q.pop(), next_expect++);
        }
    }
    while (!q.empty())
        ASSERT_EQ(q.pop(), next_expect++);
    EXPECT_EQ(next_fill, next_expect);
}

TEST(MapleQueue, HeadValidCountsOnlyContiguousValidEntries)
{
    MapleQueue q;
    q.configure(8, 4);
    unsigned s0 = q.reserveSlot();
    unsigned s1 = q.reserveSlot();
    (void)q.reserveSlot();  // s2 reserved, never filled here
    q.fillSlot(s0, 1);
    q.fillSlot(s1, 2);
    EXPECT_TRUE(q.headValid(1));
    EXPECT_TRUE(q.headValid(2));
    EXPECT_FALSE(q.headValid(3)) << "third entry is reserved but invalid";
    EXPECT_EQ(q.occupancy(), 3u) << "reserved slots count as occupancy";
}

TEST(MapleQueue, OpenIsExclusiveUntilClosed)
{
    MapleQueue q;
    EXPECT_FALSE(q.tryOpen()) << "unconfigured queues cannot be opened";
    q.configure(4, 4);
    EXPECT_TRUE(q.tryOpen());
    EXPECT_FALSE(q.tryOpen());
    q.close();
    EXPECT_TRUE(q.tryOpen());
}

TEST(MapleQueue, CloseDiscardsEntriesAndResetsPointers)
{
    MapleQueue q;
    q.configure(4, 8);
    q.fillSlot(q.reserveSlot(), 5);
    q.fillSlot(q.reserveSlot(), 6);
    q.close();
    EXPECT_TRUE(q.empty());
    EXPECT_TRUE(q.configured()) << "close keeps the geometry";
    q.fillSlot(q.reserveSlot(), 7);
    EXPECT_EQ(q.pop(), 7u);
}

TEST(MapleQueue, SignalsWakeOnSpaceAndData)
{
    MapleQueue q;
    q.configure(1, 8);
    auto park = [](sim::WaitList &list, bool *woke) -> sim::Task<void> {
        co_await list;
        *woke = true;
    };
    bool data_woke = false;
    sim::Join data = sim::spawn(park(q.dataWaiters(), &data_woke));
    EXPECT_FALSE(data_woke);
    q.fillSlot(q.reserveSlot(), 9);
    EXPECT_TRUE(data_woke) << "fill must wake the data waiters";

    bool space_woke = false;
    sim::Join space = sim::spawn(park(q.spaceWaiters(), &space_woke));
    EXPECT_FALSE(space_woke);
    (void)q.pop();
    EXPECT_TRUE(space_woke) << "pop must wake the space waiters";
    data.get();
    space.get();
}

TEST(MapleQueue, MisuseIsRejected)
{
    MapleQueue q;
    q.configure(2, 8);
    EXPECT_THROW(q.pop(), std::logic_error);          // empty pop
    unsigned s = q.reserveSlot();
    q.fillSlot(s, 1);
    EXPECT_THROW(q.fillSlot(s, 2), std::logic_error);  // double fill
    (void)q.reserveSlot();
    EXPECT_THROW(q.reserveSlot(), std::logic_error);   // overflow reserve
}
