package org.apache.spark

import java.util.concurrent.atomic.AtomicInteger

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}

/** Counts the Spark jobs a block of driver code starts. Listener delivery
  * is asynchronous, so the count waits for every event posted so far; it
  * lives in this package because the listener bus is package-private.
  */
object JobCounter {
  def apply[T](sc: SparkContext)(body: => T): (T, Int) = {
    val jobs = new AtomicInteger
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
    }
    sc.listenerBus.waitUntilEmpty()
    sc.addSparkListener(listener)
    try {
      val result = body
      sc.listenerBus.waitUntilEmpty()
      (result, jobs.get)
    } finally sc.removeSparkListener(listener)
  }
}
